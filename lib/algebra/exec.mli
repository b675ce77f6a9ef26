(** Interpreter for {!Plan} operator trees — the engine's only FLWOR
    executor. Expression evaluation is delegated to [Xq_engine.Eval];
    tuple-stream mechanics (expansion, windows, selection, sorting,
    grouping, numbering) run here over the explicit operators, so a plan
    is exactly what executes. Initialising this module installs the
    executor [Eval] hands every FLWOR to, nested ones included. *)

open Xq_xdm

(** Execute a plan in a dynamic context (as built by
    {!query_context}) under the run configuration ([Config.current ()]):
    its batch size, and its domain-pool degree for grouping, sorting,
    binding and selection operators. Output is byte-identical at any
    degree and batch size. *)
val run : Xq_engine.Context.t -> Plan.plan -> Xseq.t

(** {1 Instrumentation}

    [run_instrumented] executes the plan while collecting per-operator
    runtime statistics — what EXPLAIN ANALYZE renders. *)

module Stats : sig
  type entry = {
    label : string;        (** e.g. ["HASH-GROUP"], ["FOR-EXPAND $x"] *)
    rows_in : int;         (** cardinality of the operator's input stream *)
    rows_out : int;        (** cardinality of its output stream *)
    groups_built : int option;
        (** groups emitted, for grouping operators only *)
    cmp_calls : int;
        (** comparator work: key equality tests and sort comparisons *)
    key_walks : int;
        (** key node subtrees materialized (canonicalization walks) —
            grouping walks each key node exactly once, comparisons none *)
    spilled_bytes : int;
        (** bytes this operator wrote to spill files (0 when grouping
            stayed in memory or no governor is installed) *)
    spill_files : int;   (** spill files this operator created *)
    repartitions : int;
        (** recursive repartition passes over oversized spill files *)
    dict_interns : int;
        (** node keys this operator interned into the key dictionary
            (0 for non-grouping operators and for small inputs) *)
    dict_entries : int;
        (** size of the process key dictionary after this operator *)
    batches : int;
        (** input vectors the operator consumed (1 for small inputs;
            0 for sources) *)
    batch : int;         (** the run's batch size ([--batch]/[XQ_BATCH]) *)
    par : int;
        (** domain-pool degree available to this operator (1 when the
            operator cannot parallelize) *)
    elapsed_ms : float;    (** CPU time spent in this operator *)
  }

  (** Innermost operator first, the return clause last — execution
      order. *)
  type t = entry list
end

val run_instrumented : Xq_engine.Context.t -> Plan.plan -> Xseq.t * Stats.t

(** {1 Whole queries} *)

(** Compile a FLWOR under the run configuration ([Config.current ()]):
    the clause plan, the configuration's grouping strategy, the
    eager-aggregation pushdown when enabled, then the optimizer when
    enabled. Every FLWOR the engine runs, top level or nested, is built
    here. *)
val plan_of_flwor : Xq_lang.Ast.flwor -> Plan.plan

(** Build the dynamic context a query executes in: prolog functions,
    the [fn:doc]/[fn:collection] registry ([documents], [collections],
    [default_collection]), an element-name index over the context tree
    when [use_index] (off by default: the paper's experiments are
    index-free), the focus on [context_node], and the prolog's global
    variables. *)
val query_context :
  ?use_index:bool ->
  ?documents:(string * Node.t) list ->
  ?collections:(string * Node.t list) list ->
  ?default_collection:Node.t list ->
  context_node:Node.t ->
  Xq_lang.Ast.query ->
  Xq_engine.Context.t

(** Check (unless [check] is [false]), build the context
    ({!query_context}) and evaluate a whole query against a context
    node; every FLWOR in it runs through {!Plan} operators under the
    run configuration, with [optimize], [strategy] and [parallel], when
    given, laid over it for this call. Results are byte-identical under
    any configuration. *)
val eval_query :
  ?check:bool ->
  ?optimize:bool ->
  ?strategy:Optimizer.group_strategy ->
  ?parallel:int ->
  ?use_index:bool ->
  ?documents:(string * Node.t) list ->
  ?collections:(string * Node.t list) list ->
  ?default_collection:Node.t list ->
  context_node:Node.t ->
  Xq_lang.Ast.query ->
  Xseq.t

(** Execute a streamable query over a streamed document. The caller
    supplies the projection [path], the streamed binding's [var] and
    [positional] name (as derived by the projection analysis); the
    plan's leading [for] expansion is replaced by a pipelined scan that
    feeds matched subtrees into the remaining operator chain
    batch-at-a-time while parsing proceeds. Matched subtrees are
    charged against the installed governor until consumed downstream,
    and the governor's stream mode is enabled for the duration so
    grouping spills detach members by value (memory stays bounded by
    the watermark). Output is byte-identical to {!eval_query} over the
    materialized document for every query the projection analysis
    accepts. Raises whatever the streamed parse raises
    ([Xml_parse.Parse_error], [XQENG0005], [XQENG0008]). *)
val eval_query_stream :
  ?check:bool ->
  ?optimize:bool ->
  ?strategy:Optimizer.group_strategy ->
  ?parallel:int ->
  ?keep_whitespace:bool ->
  source:Xq_xml.Xml_stream.source ->
  path:Xq_xml.Xml_stream.path ->
  var:string ->
  positional:string option ->
  Xq_lang.Ast.query ->
  Xseq.t

(** Parse, check, compile and execute. *)
val run_string :
  ?optimize:bool ->
  ?strategy:Optimizer.group_strategy ->
  ?parallel:int ->
  context_node:Node.t ->
  string ->
  Xseq.t
