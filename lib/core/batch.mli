(** Batch-size knob for the vectorized executor.

    The executor moves tuples in vectors of [size ()] between operators;
    governor ticks, domain-pool task grain, key-dictionary interning and
    group-cardinality estimates all key off this value. [size () = 1] is
    the degenerate item-at-a-time mode: the batched fast paths (fused
    path scan, key interning, table presizing) disable themselves and
    execution matches the pre-batching engine operation for operation.

    The size is the run configuration's ([Config.current ()].batch):
    [--batch] or the protocol's [BATCH] header, else the server default,
    else [XQ_BATCH] (read once, at start-up), else 4096, clamped to
    [1 .. 2^20]. *)

(** Current batch size. *)
val size : unit -> int

(** [size () > 1] — whether batched fast paths are enabled. *)
val batched : unit -> bool
