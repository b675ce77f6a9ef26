(* The run configuration. See config.mli. *)

type group_strategy = Hash | Sort | Auto

module Knobs = struct
  type knobs = {
    k_strategy : group_strategy option;
    k_parallel : int option;
    k_batch : int option;
    k_rewrite : bool;
    k_use_index : bool;
    k_timeout_ms : int option;
    k_max_groups : int option;
    k_max_mem_mb : int option;
    k_spill_at_mb : int option;
    k_stream : bool option;
    k_optimize : bool option;
    k_agg_pushdown : bool option;
    k_spill : bool option;
    k_spill_dir : string option;
  }

  let default_knobs =
    {
      k_strategy = None;
      k_parallel = None;
      k_batch = None;
      k_rewrite = false;
      k_use_index = false;
      k_timeout_ms = None;
      k_max_groups = None;
      k_max_mem_mb = None;
      k_spill_at_mb = None;
      k_stream = None;
      k_optimize = None;
      k_agg_pushdown = None;
      k_spill = None;
      k_spill_dir = None;
    }
end

include Knobs

type t = {
  strategy : group_strategy;
  parallel : int;
  batch : int;
  optimize : bool;
  agg_pushdown : bool;
  rewrite : bool;
  use_index : bool;
  stream : bool option;
  no_stream : bool;
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

(* --- values and their clamps --------------------------------------------- *)

let degree_cap = 64
let clamp_degree n = max 1 (min n degree_cap)

let default_batch = 4096
let max_batch = 1 lsl 20
let clamp_batch n = max 1 (min n max_batch)

let strategy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "hash" -> Some Hash
  | "sort" -> Some Sort
  | "auto" -> Some Auto
  | _ -> None

let strategy_to_string = function
  | Hash -> "hash"
  | Sort -> "sort"
  | Auto -> "auto"

let positive s =
  match int_of_string_opt (String.trim s) with
  | Some n when n > 0 -> Some n
  | Some _ | None -> None

(* --- the environment layer ----------------------------------------------- *)

let of_env lookup =
  let non_empty name =
    match lookup name with Some "" | None -> None | Some _ as v -> v
  in
  let int name = Option.bind (lookup name) positive in
  {
    strategy =
      Option.value ~default:Hash
        (Option.bind (lookup "XQ_GROUP_STRATEGY") strategy_of_string);
    parallel = Option.fold ~none:1 ~some:clamp_degree (int "XQ_PARALLEL");
    batch =
      Option.fold ~none:default_batch ~some:clamp_batch (int "XQ_BATCH");
    optimize = false;
    agg_pushdown = lookup "XQ_NO_AGG_PUSHDOWN" = None;
    rewrite = false;
    use_index = false;
    stream = None;
    no_stream =
      (match lookup "XQ_NO_STREAM" with
       | Some ("1" | "true" | "yes") -> true
       | Some _ | None -> false);
    spill = lookup "XQ_NO_SPILL" <> Some "1";
    spill_dir =
      (match non_empty "XQ_SPILL_DIR" with
       | Some d -> d
       | None -> (
         match non_empty "TMPDIR" with
         | Some d -> d
         | None -> Filename.get_temp_dir_name ()));
    timeout_ms = int "XQ_TIMEOUT";
    max_groups = int "XQ_MAX_GROUPS";
    max_mem_mb = int "XQ_MAX_MEM";
    spill_at_mb = int "XQ_SPILL_AT";
    max_input_bytes = int "XQ_MAX_INPUT";
    max_depth = int "XQ_MAX_DEPTH";
    faults = lookup "XQ_FAULTS";
  }

(* Read at start-up, once: nothing can change it under a running
   process, and any domain may read it without synchronizing. *)
let env_value = of_env Sys.getenv_opt
let env () = env_value

(* --- the one merge --------------------------------------------------------- *)

let over k c =
  let pick o v = match o with Some x -> x | None -> v in
  let opt o v = match o with Some _ -> o | None -> v in
  {
    c with
    strategy = pick k.k_strategy c.strategy;
    parallel = pick (Option.map clamp_degree k.k_parallel) c.parallel;
    batch = pick (Option.map clamp_batch k.k_batch) c.batch;
    optimize = pick k.k_optimize c.optimize;
    agg_pushdown = pick k.k_agg_pushdown c.agg_pushdown;
    rewrite = k.k_rewrite || c.rewrite;
    use_index = k.k_use_index || c.use_index;
    stream = opt k.k_stream c.stream;
    spill = pick k.k_spill c.spill;
    spill_dir = pick k.k_spill_dir c.spill_dir;
    timeout_ms = opt k.k_timeout_ms c.timeout_ms;
    max_groups = opt k.k_max_groups c.max_groups;
    max_mem_mb = opt k.k_max_mem_mb c.max_mem_mb;
    spill_at_mb = opt k.k_spill_at_mb c.spill_at_mb;
  }

(* --- the scope ------------------------------------------------------------- *)

(* Domains spawned inside a scope inherit it at degree 1: a plan running
   in a pool task executes sequentially instead of forking again. *)
let key : t option Domain.DLS.key =
  Domain.DLS.new_key
    ~split_from_parent:(Option.map (fun c -> { c with parallel = 1 }))
    (fun () -> None)

let current () =
  match Domain.DLS.get key with Some c -> c | None -> env ()

let with_config c f =
  let saved = Domain.DLS.get key in
  Domain.DLS.set key (Some c);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

let with_knobs k f = with_config (over k (current ())) f
