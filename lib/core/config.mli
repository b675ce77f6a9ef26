(** The run configuration: every setting a query executes under, resolved
    once at the edge into one value and installed for the length of the
    run.

    {b Precedence.} One rule for every setting: the request (a CLI flag,
    a protocol header, an explicit argument), then the server's default,
    then the environment, then the built-in default. {!env} resolves the
    environment over the built-in defaults; {!over} lays one layer of
    {!knobs} on top of a resolved value. The only exception is the
    [XQ_NO_STREAM=1] kill switch, which beats a request for streaming.

    {b Environment.} {!env} is the only place the library reads the
    process environment, and it reads it once per process: changing a
    variable after start-up changes nothing. The variables:
    [XQ_GROUP_STRATEGY] (hash, sort or auto; anything else is hash),
    [XQ_PARALLEL] (1 .. {!degree_cap}; invalid or below 1 is 1),
    [XQ_BATCH] (clamped to 1 .. 2{^20}; invalid or empty is 4096),
    [XQ_NO_AGG_PUSHDOWN] (set to anything: pushdown off),
    [XQ_NO_STREAM] ([1], [true] or [yes]: streaming off),
    [XQ_NO_SPILL] ([1]: spilling off), [XQ_SPILL_DIR] then [TMPDIR]
    (spill directory, else the system temp dir), the positive-integer
    limits [XQ_TIMEOUT], [XQ_MAX_GROUPS], [XQ_MAX_MEM], [XQ_SPILL_AT],
    [XQ_MAX_INPUT] and [XQ_MAX_DEPTH] (anything else is unset), and
    [XQ_FAULTS] (the fault-injection spec, parsed by the governor).

    {b Scope.} {!with_config} installs a value on the calling domain;
    {!current} reads it, falling back to {!env} outside any scope.
    Domains spawned inside a scope inherit it at degree 1. *)

type group_strategy = Hash | Sort | Auto

(** The request layer, in a module of its own so front ends can
    re-export it whole ([Pipeline] does). *)
module Knobs : sig
  (** One layer of settings, as a request or a front end asks for them:
      [None] (or [false]) leaves the setting to the layer below. *)
  type knobs = {
    k_strategy : group_strategy option;
    k_parallel : int option;  (** domain-pool degree *)
    k_batch : int option;
        (** executor batch size ([1] = item-at-a-time). Output is
            byte-identical at any size. *)
    k_rewrite : bool;  (** implicit-group-by rewrite before evaluation *)
    k_use_index : bool;  (** answer [//name] from an element-name index *)
    k_timeout_ms : int option;
    k_max_groups : int option;
    k_max_mem_mb : int option;
    k_spill_at_mb : int option;
    k_stream : bool option;
        (** streamed ingestion when a streamable source is supplied:
            [None] = on when the projection verdict allows (the default),
            [Some true] = requested by name (a one-line stderr notice when
            the query is not streamable), [Some false] = off. The
            [XQ_NO_STREAM=1] kill switch beats all three. *)
    k_optimize : bool option;  (** run the logical plan optimizer *)
    k_agg_pushdown : bool option;  (** eager-aggregation pushdown *)
    k_spill : bool option;  (** [Some false]: spilling off *)
    k_spill_dir : string option;
  }

  (** Every field unset: a layer that changes nothing. *)
  val default_knobs : knobs
end

include module type of struct
  include Knobs
end

(** A resolved configuration. *)
type t = {
  strategy : group_strategy;
  parallel : int;  (** 1 .. {!degree_cap} *)
  batch : int;  (** 1 .. 2{^20} *)
  optimize : bool;
  agg_pushdown : bool;
  rewrite : bool;
  use_index : bool;
  stream : bool option;  (** the request's [k_stream] *)
  no_stream : bool;  (** the [XQ_NO_STREAM] kill switch *)
  spill : bool;
  spill_dir : string;
  timeout_ms : int option;
  max_groups : int option;
  max_mem_mb : int option;
  spill_at_mb : int option;
  max_input_bytes : int option;
  max_depth : int option;
  faults : string option;
}

val degree_cap : int
val strategy_to_string : group_strategy -> string

(** Resolve the environment, read through [lookup], over the built-in
    defaults. Pure: tests drive it with their own lookup. *)
val of_env : (string -> string option) -> t

(** [of_env Sys.getenv_opt], computed once, at start-up. *)
val env : unit -> t

(** [over k c] is [c] with every setting [k] gives replacing [c]'s
    ([k_rewrite]/[k_use_index] add to it). Degrees and batch sizes are
    clamped. *)
val over : knobs -> t -> t

(** The configuration installed on this domain, else {!env}. *)
val current : unit -> t

(** Run [f] with [c] installed on the calling domain, restoring what was
    there before on exit. *)
val with_config : t -> (unit -> 'a) -> 'a

(** [with_config (over k (current ())) f]: run [f] with [k] laid over
    the configuration it would otherwise run under. *)
val with_knobs : knobs -> (unit -> 'a) -> 'a
