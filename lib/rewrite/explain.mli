(** Textual evaluation-plan explanations.

    Describes how the plan executor will execute a query: the
    clause pipeline of every FLWOR, which grouping strategy applies (one
    hash pass for default deep-equal keys, a comparator scan when any key
    has [using]), count-optimized nests, sorts — and flags FLWORs that
    match the implicit-grouping idiom {!Rewrite.detect} could rewrite. *)

open Xq_lang

val expr : Ast.expr -> string
val query : Ast.query -> string

(** {1 EXPLAIN ANALYZE}

    Renders the plan tree that actually executed, each operator
    annotated with its runtime counters — rows in/out, groups built,
    comparator calls, key-subtree walks ([walks=], when any), the
    domain-pool degree ([par=], when above 1), and (unless
    [timings:false], which golden tests use for determinism)
    per-operator CPU time. *)

(** Render one executed plan with its statistics. *)
val analyzed :
  ?timings:bool -> Xq_algebra.Plan.plan -> Xq_algebra.Exec.Stats.t -> string

(** Compile, execute and render every top-level FLWOR of the query body
    (other parts are evaluated without a rendered plan and noted as
    such; FLWORs nested inside any part run through plans under the
    same settings but are not rendered), ending with the total result
    cardinality. Runs under the run configuration ([Config.current ()]:
    outside a run, the environment's), with [optimize] (run the plan
    optimizer first), [strategy] and [parallel] (the domain-pool
    degree), when given, laid over it. *)
val analyze_query :
  ?timings:bool ->
  ?optimize:bool ->
  ?strategy:Xq_algebra.Optimizer.group_strategy ->
  ?parallel:int ->
  context_node:Xq_xdm.Node.t ->
  Ast.query ->
  string
