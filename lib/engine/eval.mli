(** The expression evaluator: XQuery expressions, paths, constructors
    and calls. FLWOR expressions (with the paper's [group by]/[nest]
    extensions) are not evaluated here: every one, nested ones included,
    is handed to the executor the plan algebra installs
    ({!set_flwor_executor}), so there is exactly one tuple-stream
    engine. *)

open Xq_xdm
open Xq_lang

(** Evaluate an expression in a context. Raises [Failure] on a FLWOR
    when no executor has been installed. *)
val eval : Context.t -> Ast.expr -> Xseq.t

(** Install the FLWOR executor. [Xq_algebra.Exec] calls this once, when
    it is initialised. *)
val set_flwor_executor : (Context.t -> Ast.flwor -> Xseq.t) -> unit

(** True when evaluating the expression concurrently on several domains
    is safe: it constructs no nodes (node ids come from a global
    non-atomic counter) and calls no user functions nor the
    registry-reading or tracing builtins. Conservative — used to decide
    whether grouping may evaluate key expressions on the {!Par} pool. *)
val parallel_safe : Context.t -> Ast.expr -> bool
