(** The one compile-and-run pipeline behind every front end.

    The CLI, the REPL, the differential fuzzer and the query server all
    execute queries through this module, so they share one code path
    byte for byte: parse → static check → optional implicit-group-by
    rewrite ({!compile}), then plan-algebra execution ({!eval}), then
    full serialization before anything is written ({!render} — a trip
    mid-query can never leave partial output). {!run} resolves one run
    configuration from {!knobs} over the lower layers and wraps the
    whole thing in it and in a governor built from its limits,
    installed either process-wide (CLI semantics) or scoped to the
    calling domain (the server's concurrent-query semantics).

    {!compile}'s result is the server's plan-cache artifact: the
    setup cost a resident process amortizes is parsing, static
    checking and rewriting (plus document parsing, cached separately);
    building the operator tree from a checked AST is linear in query
    size and happens inside {!eval}, once per FLWOR evaluation. *)

open Xq_xdm

(** Everything that selects a pipeline variant — [knobs] and
    [default_knobs] (no setting at all, so a request built from it
    sends no header) — re-exported from {!Xq_config.Config.Knobs}: one
    layer of the run configuration, where [None] (or [false]) leaves a
    setting to the layer below — the server default, then the
    environment, then the built-in default. *)
include module type of struct
  include Xq_config.Config.Knobs
end

(** A parsed, statically checked, optionally rewritten query — the
    artifact the server's plan cache holds and every front end
    executes. *)
type compiled

(** Parse + static check + (when [rewrite]) the implicit-group-by
    rewrite. Raises [Xerror.Error] with a static code on bad input. *)
val compile : ?rewrite:bool -> string -> compiled

(** Wrap an already-checked query (the fuzzer's generated ASTs). *)
val of_query : ?source:string -> Xq_lang.Ast.query -> compiled

val query : compiled -> Xq_lang.Ast.query
val source : compiled -> string

(** The plan-cache key for [source] under [knobs] laid over [base]
    (default: the configuration installed on this domain, else the
    environment's): query text × the resolved strategy (the request's,
    else the server default's, else [XQ_GROUP_STRATEGY]'s) × the
    compile-relevant settings (rewrite, index) — so a cached artifact is
    never reused under settings that could compile or execute it
    differently. Injective per component (length-prefixed fields). *)
val cache_key : ?base:Xq_config.Config.t -> knobs:knobs -> string -> string

(** Execute a compiled query against a context document through the
    plan algebra ([Exec.eval_query]), under the run configuration
    installed on this domain (outside a run, the environment's) with
    [strategy] and [parallel], when given, laid over it. No governor
    management here. *)
val eval :
  ?use_index:bool ->
  ?strategy:Xq_algebra.Optimizer.group_strategy ->
  ?parallel:int ->
  doc:Node.t ->
  compiled ->
  Xseq.t

(** Serialize a full result sequence (never partial). *)
val render : ?indent:bool -> Xseq.t -> string

type report = {
  r_output : string;
      (** the rendered result — or the EXPLAIN ANALYZE text *)
  r_items : int;  (** result cardinality (0 in explain mode) *)
  r_elapsed_ms : float;  (** evaluation time, excluding document load *)
  r_stats : Xq_governor.Governor.stats option;
      (** the governor's stats when one was installed *)
}

(** The full governed pipeline. Resolve the run configuration —
    [knobs] laid over [base] (default: the configuration installed on
    this domain, else the environment's; the server passes its own
    default) — and install it on this domain for the length of the run,
    so every FLWOR, nested ones and pool domains included, runs under
    it and nothing outlives the run. Build a governor from its limits,
    install it ([`Process] = process-wide, CLI semantics;
    [`Domain] = scoped to this domain, server semantics), load the
    document inside the governed region (input limits apply),
    rebaseline so memory budgets cover the query's own work, compile
    [source] (or reuse [compiled]), evaluate, and serialize fully.
    [explain_analyze] renders the executed operator tree instead of
    the result. Raises [Xerror.Error] exactly as the engine does.

    [force_governor] installs an unlimited governor even when [knobs]
    and the environment set no limit, so the caller can reach the query
    with cooperative cancellation (the server's drain path);
    [on_governor] is called with the installed governor, after
    installation and before any work — the server registers it in its
    in-flight table there.

    [stream_source] supplies the document as a streamable source
    instead of [load_doc]. When streaming is enabled ([k_stream], the
    [XQ_NO_STREAM] kill switch) and the projection analysis accepts the
    query, the document is scanned with projection pushdown and
    matched subtrees flow into the plan pipeline as parsing proceeds —
    memory stays bounded by the matched working set (and the spill
    watermark) rather than the document size, with byte-identical
    output. Otherwise the source materializes through the ordinary
    parser and everything behaves as if streaming were never asked
    for; EXPLAIN ANALYZE output gains a [stream:] verdict line. *)
val run :
  ?scope:[ `Process | `Domain ] ->
  ?force_governor:bool ->
  ?on_governor:(Xq_governor.Governor.t -> unit) ->
  ?base:Xq_config.Config.t ->
  ?knobs:knobs ->
  ?indent:bool ->
  ?explain_analyze:bool ->
  ?compiled:compiled ->
  ?source:string ->
  ?load_doc:(unit -> Node.t) ->
  ?stream_source:Xq_xml.Xml_stream.source ->
  unit ->
  report
