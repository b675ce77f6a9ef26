(** A per-document element-name index: local name → elements in document
    order. System RX-style engines answer [//name] from such an index
    instead of walking the tree; the paper's experiments explicitly
    disable indexes, so the evaluator only uses this when the caller
    opts in (see [Xq_algebra.Exec.eval_query ~use_index] and the index ablation
    bench). *)

open Xq_xdm

type t

(** Index every element in the tree under [root] (one preorder pass). *)
val build : Node.t -> t

(** All elements with this local name, in document order. *)
val find : t -> string -> Node.t list

(** The tree the index was built from. *)
val indexed_root : t -> Node.t

(** Number of distinct names indexed. *)
val size : t -> int
