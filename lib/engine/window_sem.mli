(** Window boundary computation for the algebra executor's window
    operator — the XQuery 3.0 tumbling/sliding semantics over a
    materialized item sequence.

    The caller supplies the start/end predicates as closures over
    1-based positions (it binds the condition's variables itself);
    this module only decides where windows begin and end:

    - {b tumbling}: windows never overlap. A window opens at the first
      position satisfying [start_when] at or after the previous window's
      end. With an end condition, it closes at the first position ≥ its
      start satisfying [end_when] (inclusive); without one, it closes
      just before the next position satisfying [start_when] (or at the
      end of the input).
    - {b sliding}: a window opens at {e every} position satisfying
      [start_when]; it closes at the first position ≥ its start
      satisfying [end_when], or at the end of the input.
    - [only_end]: windows whose end condition never fired are dropped. *)

type bounds = {
  start_pos : int;  (** 1-based, inclusive *)
  end_pos : int;    (** 1-based, inclusive *)
}

val compute :
  kind:Xq_lang.Ast.window_kind ->
  start_when:(int -> bool) ->
  end_when:(start_pos:int -> int -> bool) option ->
  only_end:bool ->
  length:int ->
  bounds list
