let default_size = 4096
let min_size = 1
let max_size = 1 lsl 20
let clamp n = if n < min_size then min_size else if n > max_size then max_size else n

(* 0 = no override *)
let override = Atomic.make 0

(* Read once, at start-up: every plan execution — one per nested FLWOR
   evaluation — and every path step resolves the size, so it must not
   cost an environment lookup. *)
let env_size =
  match Sys.getenv_opt "XQ_BATCH" with
  | None | Some "" -> default_size
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> clamp n
    | _ -> default_size)

let size () =
  let o = Atomic.get override in
  if o > 0 then o else env_size

let set_size = function
  | None -> Atomic.set override 0
  | Some n -> Atomic.set override (clamp n)

let get_override () =
  match Atomic.get override with 0 -> None | n -> Some n

let batched () = size () > 1
