(** Batch-size knob for the vectorized executor.

    The executor moves tuples in vectors of [size ()] between operators;
    governor ticks, domain-pool task grain and key-dictionary interning
    all key off this value. [size () = 1] is the degenerate
    item-at-a-time mode: the batched fast paths (fused path scan, key
    interning, table presizing) disable themselves and execution matches
    the pre-batching engine operation for operation.

    Resolution order: {!set_size} override > [XQ_BATCH] environment
    variable (read once, at start-up) > default 4096. The value is
    clamped to [1 .. 2^20]. *)

val default_size : int

(** Current batch size. *)
val size : unit -> int

(** [set_size (Some n)] overrides the batch size process-wide (the CLI
    [--batch] flag and the pipeline knob go through this);
    [set_size None] restores env/default resolution. *)
val set_size : int option -> unit

(** The current {!set_size} override, if any — save/restore this around
    a scoped change (a per-request knob must not outlive its request). *)
val get_override : unit -> int option

(** [size () > 1] — whether batched fast paths are enabled. *)
val batched : unit -> bool
