(* The measuring program of the xqgroup end-to-end benchmark. [run.py]
   builds it, generates the documents with [xq gen] into a work
   directory DIR (one NAME.xml per document), and calls its modes:

     xqbench.exe ref    WORKLOAD DIR
     xqbench.exe setup  WORKLOAD DIR
     xqbench.exe op     WORKLOAD DIR QUERY-ID OP-ID
     xqbench.exe probe  WORKLOAD DIR
     xqbench.exe server WORKLOAD DIR SEED SECONDS TRACE SETUPS SERVER-EXE

   [ref] writes each query to DIR/ID.xq and, in DIR/ref.txt, the
   workload's [xq run] flags and its schedule with every query's
   reference output digest. References come from a path that shares no
   executor with the measured one, in a process of their own, so they
   never count toward the measured process's memory.

   The file workloads run one process per operation: [run.py] times
   [xq run] itself, and a traced operation is one [op] process that
   takes the same branches as [Pipeline.run] through the public
   functions of each layer, with a span around each call. [setup] is
   one set-up of a file workload; [probe] times the XML layer alone.

   [server] runs the whole warm-server workload: a daemon in its own
   process, two client connections, and (with TRACE = 1) the in-process
   layer phases. It writes DIR/result.json. Spans are appended to
   DIR/spans.jsonl when a process ends. *)

module Pipeline = Xq_pipeline.Pipeline
module Governor = Xq_governor.Governor
module Projection = Xq_rewrite.Projection
module Optimizer = Xq_algebra.Optimizer
module Exec = Xq_algebra.Exec
module Xml_parse = Xq_xml.Xml_parse
module Xml_stream = Xq_xml.Xml_stream
module Key = Xq_engine.Key
module Refimpl = Xq_refimpl.Refimpl
module Server = Xq_server.Server_core
module Protocol = Xq_server.Protocol
module Client = Xq_client.Client

let sprintf = Printf.sprintf
let now () = Monotonic_clock.now ()
let elapsed_ns t0 = Int64.to_int (Int64.sub (now ()) t0)

(* --- queries and workloads ---------------------------------------------- *)

(* How a query's reference output is computed: the naive oracle, or,
   where the oracle's O(items x groups) nested-loop grouping cannot
   finish in time (high-cardinality keys) or the query leaves its
   subset, the plan algebra's sort-based grouping over a materialized
   tree. Every query orders its groups with [order by], so the bytes do
   not depend on executor, strategy or streaming. *)
type oracle = Refimpl | Sort_engine

type query = { id : string; doc : string; src : string; oracle : oracle }

let orders id src oracle = { id; doc = "orders"; src; oracle }

(* Table 1's Qgb template, one or two keys, groups in key order. *)
let qgb keys =
  let vars = List.mapi (fun i _ -> if i = 0 then "$a" else "$b") keys in
  let by =
    List.map2 (fun k v -> sprintf "$litem/%s into %s" k v) keys vars
    |> String.concat ", "
  in
  let vs = String.concat ", " vars in
  sprintf
    "for $litem in //order/lineitem\n\
     group by %s\n\
     nest $litem into $items\n\
     order by %s\n\
     return <r>{%s, count($items)}</r>"
    by vs vs

(* Table 1's Q template: the implicit-grouping idiom, one rescan per key. *)
let q_idiom key =
  sprintf
    "for $a in distinct-values(//order/lineitem/%s)\n\
     let $items := for $i in //order/lineitem where $i/%s = $a return $i\n\
     order by $a\n\
     return <r>{$a, count($items)}</r>"
    key key

(* A nest consumed only by aggregates: folded into accumulators. *)
let qgb_agg key =
  sprintf
    "for $litem in //order/lineitem\n\
     group by $litem/%s into $a\n\
     nest $litem/quantity into $q\n\
     order by $a\n\
     return <r>{$a}<c>{count($q)}</c><s>{sum($q)}</s><v>{avg($q)}</v></r>"
    key

(* A nest whose members are returned, so it stays materialized. *)
let qgb_members key =
  sprintf
    "for $litem in //order/lineitem\n\
     group by $litem/%s into $a\n\
     nest $litem into $items\n\
     order by $a\n\
     return <r>{$a, count($items), $items/suppkey}</r>"
    key

(* Q8: a moving window over each region's sales, ordered by time. *)
let q8_window =
  {|for $s in //sale
group by $s/region into $region
nest $s order by $s/timestamp into $rs
order by $region
return
  <region name="{string($region)}">
    {for $s1 at $i in $rs
     return <w>{sum(for $s2 at $j in $rs
                    where $j < $i and $j >= $i - 10
                    return $s2/quantity * $s2/price)}</w>}
  </region>|}

(* Q11: rollup over a ragged category hierarchy via a recursive function. *)
let q11_rollup =
  {|declare function local:paths($cats as item()*) as xs:string* {
  for $c in $cats
  let $n := local-name($c)
  return ($n, for $p in local:paths($c/*) return concat($n, "/", $p)) };
for $b in //book
for $c in local:paths($b/categories/*)
group by $c into $category
nest $b/price into $prices
order by $category
return <result><category>{$category}</category><avg-price>{avg($prices)}</avg-price></result>|}

let paper_qgb =
  [ orders "Q1-qgb" (qgb [ "shipinstruct" ]) Refimpl;
    orders "Q2-qgb" (qgb [ "shipmode" ]) Refimpl;
    orders "Q3-qgb" (qgb [ "tax" ]) Refimpl;
    orders "Q6-qgb" (qgb [ "quantity" ]) Refimpl;
    orders "Q4-qgb" (qgb [ "shipinstruct"; "shipmode" ]) Refimpl;
    orders "Q5-qgb" (qgb [ "shipinstruct"; "tax" ]) Refimpl ]

let workload_queries = function
  | "cold-file" ->
    paper_qgb
    @ [ orders "agg-tax" (qgb_agg "tax") Refimpl;
        orders "Q2-q" (q_idiom "shipmode") Refimpl;
        orders "Q1-q" (q_idiom "shipinstruct") Refimpl ]
  | "warm-server" ->
    paper_qgb
    @ [ orders "Q2-q" (q_idiom "shipmode") Refimpl;
        orders "agg-tax" (qgb_agg "tax") Refimpl;
        { id = "Q8-window"; doc = "sales"; src = q8_window; oracle = Refimpl };
        { id = "Q11-rollup"; doc = "bib"; src = q11_rollup;
          oracle = Sort_engine };
        orders "agg-extendedprice" (qgb_agg "extendedprice") Sort_engine ]
  | "spill-highcard" ->
    [ orders "partkey-members" (qgb_members "partkey") Sort_engine;
      orders "partkey-agg" (qgb_agg "partkey") Sort_engine;
      orders "extendedprice-agg" (qgb_agg "extendedprice") Sort_engine ]
  | w -> failwith ("unknown workload " ^ w)

(* The spill watermark sits below the working set of the materialized
   nests, so they spill. It is a soft watermark, not a --max-mem cap. *)
let workload_knobs = function
  | "spill-highcard" -> { Pipeline.default_knobs with k_spill_at_mb = Some 16 }
  | _ -> Pipeline.default_knobs

(* The [xq run] flags that select [workload_knobs]. *)
let xq_run_flags workload =
  match (workload_knobs workload).Pipeline.k_spill_at_mb with
  | Some mb -> [ "--spill-at"; string_of_int mb ]
  | None -> []

(* The cyclic schedule: a permutation of the workload's queries drawn
   from a fixed seed, so every run replays the same order and only the
   documents change with the workload seed. *)
let schedule workload =
  let a = Array.of_list (workload_queries workload) in
  let rng = Random.State.make [| 2005 |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let find_query workload id =
  List.find (fun q -> q.id = id) (workload_queries workload)

let doc_path dir q = Filename.concat dir (q.doc ^ ".xml")
let file_bytes path = (Unix.stat path).Unix.st_size
let digest s = Digest.to_hex (Digest.string s)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* --- reference outputs ----------------------------------------------------- *)

let reference ~doc q =
  let c = Pipeline.compile q.src in
  let by_sort () =
    Pipeline.render (Pipeline.eval ~strategy:Optimizer.Sort ~doc c)
  in
  match q.oracle with
  | Sort_engine -> by_sort ()
  | Refimpl -> (
    try Pipeline.render (Refimpl.eval_query ~context_node:doc (Pipeline.query c))
    with Refimpl.Unsupported what ->
      Printf.eprintf "xqbench: %s outside the oracle's subset (%s); sort engine\n%!"
        q.id what;
      by_sort ())

let write_refs workload dir =
  let docs = Hashtbl.create 4 in
  let load path =
    match Hashtbl.find_opt docs path with
    | Some d -> d
    | None ->
      let d = Xml_parse.parse_file path in
      Hashtbl.replace docs path d;
      d
  in
  let b = Buffer.create 1024 in
  List.iter (fun f -> Printf.bprintf b "flag %s\n" f) (xq_run_flags workload);
  Array.iter
    (fun q ->
      let qfile = Filename.concat dir (q.id ^ ".xq") in
      write_file qfile q.src;
      let out = reference ~doc:(load (doc_path dir q)) q in
      Printf.bprintf b "query %s %s %s %s\n" q.id (doc_path dir q) (digest out) qfile)
    (schedule workload);
  write_file (Filename.concat dir "ref.txt") (Buffer.contents b)

let read_refs dir =
  let ic = open_in (Filename.concat dir "ref.txt") in
  let tbl = Hashtbl.create 16 in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ "query"; id; _; md5; _ ] -> Hashtbl.replace tbl id md5
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

(* --- spans ------------------------------------------------------------------ *)

(* A span covers one call into a layer: name, start, end, parent span
   and the operation it belongs to. Spans stay in memory and are
   appended to DIR/spans.jsonl when the process ends. *)
type span = {
  sp_id : int;
  sp_parent : int;  (** 0 = a root span *)
  sp_op : int;
  sp_name : string;
  sp_start : int64;
  sp_end : int64;
}

let spans : span list ref = ref []
let span_lock = Mutex.create ()
let next_span = ref 0

let with_span ~op ?(parent = 0) name f =
  let id = Mutex.protect span_lock (fun () -> incr next_span; !next_span) in
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now () in
      Mutex.protect span_lock (fun () ->
          spans :=
            { sp_id = id; sp_parent = parent; sp_op = op; sp_name = name;
              sp_start = t0; sp_end = t1 }
            :: !spans))
    (fun () -> f id)

let append_spans dir =
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat dir "spans.jsonl")
  in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": %S, \"start_ns\": \
         %Ld, \"end_ns\": %Ld}\n"
        s.sp_id s.sp_parent s.sp_op s.sp_name s.sp_start s.sp_end)
    (List.rev !spans);
  close_out oc

(* --- per-operation counters ---------------------------------------------------- *)

let counters_json l =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> sprintf "%S: %d" k v) l) ^ "}"

let json_list f l = "[" ^ String.concat ", " (List.map f l) ^ "]"

let governor_counters = function
  | None -> []
  | Some (g : Governor.stats) ->
    [ ("peak_mem_bytes", g.Governor.s_peak_mem_bytes);
      ("spill_bytes", g.Governor.s_spilled_bytes);
      ("spill_files", g.Governor.s_spill_files);
      ("repartitions", g.Governor.s_repartitions) ]

let key_counters () = (Key.walk_count (), Key.dict_size (), Key.intern_count ())

let key_deltas (w0, d0, i0) =
  let w1, d1, i1 = key_counters () in
  [ ("key_walks", w1 - w0); ("dict_entries", d1 - d0); ("dict_interns", i1 - i0) ]

(* --- file workloads ------------------------------------------------------------ *)

(* One traced operation, taking the same branches as [Pipeline.run] on a
   file source under the governor it would install: compile, projection
   verdict, then either the streamed scan-and-evaluate or parse +
   evaluate, then serialization. *)
let traced_file_op ~workload ~dir ~op q =
  let knobs = workload_knobs workload in
  let path = doc_path dir q in
  let keys0 = key_counters () in
  let gov =
    Governor.of_limits
      ?spill_watermark_bytes:
        (Option.map (fun mb -> mb * 1024 * 1024) knobs.Pipeline.k_spill_at_mb)
      ()
  in
  let body root () =
    let span name f = with_span ~op ~parent:root name (fun _ -> f ()) in
    let c = span "lang.compile" (fun () -> Pipeline.compile q.src) in
    let verdict = span "rewrite.analyze" (fun () -> Projection.analyze (Pipeline.query c)) in
    let rebaseline () = Option.iter Governor.rebaseline gov in
    let result, streamed =
      match verdict with
      | Projection.Streamable { path = proj; var; positional } ->
        rebaseline ();
        ( span "exec.stream_eval" (fun () ->
              Exec.eval_query_stream ~check:false
                ~strategy:(Optimizer.strategy_from_env ())
                ~source:(`File path) ~path:proj ~var ~positional
                (Pipeline.query c)),
          1 )
      | Projection.Materialize _ ->
        let doc = span "xml.parse" (fun () -> Xml_parse.parse_file path) in
        rebaseline ();
        (span "exec.eval" (fun () -> Pipeline.eval ~doc c), 0)
    in
    let out = span "xml.serialize" (fun () -> Pipeline.render result) in
    (out, List.length result, streamed)
  in
  let out, items, streamed =
    with_span ~op "op" (fun root ->
        match gov with
        | None -> body root ()
        | Some g -> Governor.with_governor g (body root))
  in
  let counters =
    (("streamed", streamed) :: key_deltas keys0)
    @ governor_counters (Option.map Governor.stats gov)
  in
  sprintf "{\"md5\": %S, \"out_bytes\": %d, \"items\": %d, \"counters\": %s}"
    (digest out) (String.length out) items (counters_json counters)

(* One set-up of a file workload: load each document and compile every
   query, as a process does before its first answer. *)
let file_setup ~workload ~dir =
  let queries = workload_queries workload in
  List.sort_uniq compare (List.map (doc_path dir) queries)
  |> List.iter (fun p -> ignore (Xml_parse.parse_file p));
  List.iter (fun q -> ignore (Pipeline.compile q.src)) queries

(* The parse/scan probe: the materializing parse of each document, and
   the streaming scan with each streamable query's projection path and a
   no-op emit. Median of three. *)
let xml_probe ~workload ~dir =
  let queries = workload_queries workload in
  let median3 f =
    let t = List.init 3 (fun _ -> let t0 = now () in f (); elapsed_ns t0) in
    List.nth (List.sort compare t) 1
  in
  let parse =
    List.sort_uniq compare (List.map (doc_path dir) queries)
    |> List.map (fun p ->
           sprintf "{\"doc\": %S, \"bytes\": %d, \"ns\": %d}" (Filename.basename p)
             (file_bytes p)
             (median3 (fun () -> ignore (Xml_parse.parse_file p))))
  in
  let scan =
    List.filter_map
      (fun q ->
        match Projection.analyze (Pipeline.query (Pipeline.compile q.src)) with
        | Projection.Streamable { path; _ } ->
          Some (doc_path dir q, Xml_stream.path_to_string path, path)
        | Projection.Materialize _ -> None)
      queries
    |> List.sort_uniq (fun (d, s, _) (d', s', _) -> compare (d, s) (d', s'))
    |> List.map (fun (p, label, path) ->
           sprintf "{\"doc\": %S, \"path\": %S, \"bytes\": %d, \"ns\": %d}"
             (Filename.basename p) label (file_bytes p)
             (median3 (fun () ->
                  Xml_stream.scan ~path ~emit:(fun ~bytes:_ _ -> ()) (`File p))))
  in
  sprintf "\"parse\": [%s], \"scan\": [%s]" (String.concat ", " parse)
    (String.concat ", " scan)

(* --- warm-server: a resident daemon, two client connections ------------------ *)

type sample = {
  s_query : string;
  s_ns : int;  (** wall time, request to answer *)
  s_ok : bool;  (** answered, and the output matched the reference *)
  s_in_bytes : int;  (** the input document's size *)
  s_out_bytes : int;
  s_items : int;
  s_counters : (string * int) list;
}

let sample_json s =
  sprintf
    "{\"query\": %S, \"ns\": %d, \"ok\": %b, \"in_bytes\": %d, \"out_bytes\": \
     %d, \"items\": %d, \"counters\": %s}"
    s.s_query s.s_ns s.s_ok s.s_in_bytes s.s_out_bytes s.s_items
    (counters_json s.s_counters)

let vm_hwm_kb pid =
  let ic = open_in (sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  let kb = go () in
  close_in ic;
  kb

let run_request dir q =
  Protocol.Run
    { Protocol.rq_source = q.src; rq_doc = Protocol.Doc_path (doc_path dir q);
      rq_knobs = Pipeline.default_knobs; rq_indent = false }

(* The daemon answers with [xq run]'s stdout, trailing newline included. *)
let payload_output p =
  let n = String.length p in
  if n > 0 && p.[n - 1] = '\n' then String.sub p 0 (n - 1) else p

let stats_of_payload p =
  String.split_on_char '\n' p
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
         | _ -> None)

type daemon = { pid : int; socket : string }

let start_daemon ~exe ~dir k =
  let socket = Filename.concat dir (sprintf "d%d.sock" k) in
  let log =
    Unix.openfile (Filename.concat dir (sprintf "d%d.log" k))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; socket |] null log log
  in
  Unix.close null;
  Unix.close log;
  (* run.py stops a daemon this process could not stop itself *)
  write_file (Filename.concat dir (sprintf "d%d.pid" k)) (sprintf "%d\n" pid);
  { pid; socket }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] d.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let wait_ready d =
  let c = Client.create ~attempts:1 ~socket:d.socket () in
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match Client.request c Protocol.Ping with
    | Ok _ -> Client.close c
    | Error _ when Unix.gettimeofday () -. t0 < 30. ->
      Unix.sleepf 0.005;
      go ()
    | Error f -> failwith ("daemon not ready: " ^ Client.failure_message f)
  in
  go ()

let server_stats c =
  match Client.request c Protocol.Stats with
  | Ok p -> stats_of_payload p
  | Error f -> failwith ("STATS failed: " ^ Client.failure_message f)

(* One client request; a failure or a wrong output counts as failed. *)
let client_op ~dir ~refs c q =
  let t0 = now () in
  let r = Client.request c (run_request dir q) in
  let ns = elapsed_ns t0 in
  let ok, out_bytes =
    match r with
    | Ok p ->
      let o = payload_output p in
      (digest o = Hashtbl.find refs q.id, String.length o)
    | Error f ->
      Printf.eprintf "xqbench: %s failed: %s\n%!" q.id (Client.failure_message f);
      (false, 0)
  in
  { s_query = q.id; s_ns = ns; s_ok = ok; s_in_bytes = file_bytes (doc_path dir q);
    s_out_bytes = out_bytes; s_items = 0; s_counters = [] }

(* Set-up: start the daemon, wait for it to answer, then run each query
   once so its document is resident and its plan cached. *)
let server_setup ~exe ~dir ~refs ~sched k =
  let t0 = now () in
  let d = start_daemon ~exe ~dir k in
  wait_ready d;
  let c = Client.create ~socket:d.socket () in
  Array.iter
    (fun q ->
      let s = client_op ~dir ~refs c q in
      if not s.s_ok then failwith ("warm-up failed on " ^ q.id))
    sched;
  Client.close c;
  (d, elapsed_ns t0)

let clients = 2

(* Closed loop: each client sends its next request when the previous
   answer arrives; a shared cursor walks the schedule, and the phase
   ends at the first cycle boundary after [seconds]. *)
let client_phase ~dir ~refs ~socket ~seed ~seconds ~sched ~trace =
  let n = Array.length sched in
  let lock = Mutex.create () in
  let cursor = ref 0 and stopped = ref false in
  let t0 = now () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let next () =
    Mutex.protect lock (fun () ->
        let i = !cursor in
        if !stopped || (i mod n = 0 && i > 0 && Int64.compare (now ()) deadline >= 0)
        then (stopped := true; None)
        else (incr cursor; Some i))
  in
  let results = Array.make clients [] and retries = Array.make clients 0 in
  let worker k () =
    let c = Client.create ~seed:(seed + k) ~socket () in
    let rec go acc =
      match next () with
      | None -> acc
      | Some i ->
        let q = sched.(i mod n) in
        let s =
          if trace then
            with_span ~op:(i + 1) "client.request" (fun _ -> client_op ~dir ~refs c q)
          else client_op ~dir ~refs c q
        in
        go (s :: acc)
    in
    results.(k) <- go [];
    retries.(k) <- (Client.stats c).Client.s_retries;
    Client.close c
  in
  let threads = List.init clients (fun k -> Thread.create (worker k) ()) in
  List.iter Thread.join threads;
  let wall = elapsed_ns t0 in
  (List.concat (Array.to_list results), wall, Array.fold_left ( + ) 0 retries)

(* In process, on the same requests: [Server_core.handle] as a whole, and
   the calls a warm request makes below it (evaluation over the resident
   document, serialization) under a governor as the server installs one
   per query. *)
let in_process_phases ~dir ~refs ~sched =
  let srv = Server.create () in
  Array.iter (fun q -> ignore (Server.handle srv (run_request dir q))) sched;
  let n = Array.length sched in
  let handle =
    List.init n (fun i ->
        let q = sched.(i) in
        let t0 = now () in
        let r =
          with_span ~op:(1_000_000 + i) "server.handle" (fun _ ->
              Server.handle srv (run_request dir q))
        in
        let ns = elapsed_ns t0 in
        let ok =
          match r with
          | Protocol.Payload p -> digest (payload_output p) = Hashtbl.find refs q.id
          | Protocol.Error _ -> false
        in
        { s_query = q.id; s_ns = ns; s_ok = ok; s_in_bytes = file_bytes (doc_path dir q);
          s_out_bytes = 0; s_items = 0; s_counters = [] })
  in
  let layers =
    List.init n (fun i ->
        let q = sched.(i) and op = 2_000_000 + i in
        let doc = Xq_server.Doc_store.load (Server.docs srv) (doc_path dir q) in
        let c = Pipeline.compile q.src in
        let keys0 = key_counters () in
        let gov = Governor.create () in
        let t0 = now () in
        let out, items =
          with_span ~op "op" (fun root ->
              Governor.with_governor gov (fun () ->
                  Governor.rebaseline gov;
                  let span name f = with_span ~op ~parent:root name (fun _ -> f ()) in
                  let r = span "exec.eval" (fun () -> Pipeline.eval ~doc c) in
                  (span "xml.serialize" (fun () -> Pipeline.render r), List.length r)))
        in
        let ns = elapsed_ns t0 in
        { s_query = q.id; s_ns = ns; s_ok = digest out = Hashtbl.find refs q.id;
          s_in_bytes = file_bytes (doc_path dir q); s_out_bytes = String.length out;
          s_items = items;
          s_counters = key_deltas keys0 @ governor_counters (Some (Governor.stats gov)) })
  in
  (handle, layers)

let measure_server ~workload ~dir ~seed ~seconds ~trace ~setups ~exe =
  let refs = read_refs dir in
  let sched = schedule workload in
  (* every set-up but the last is torn down before the next one starts *)
  let setup =
    List.init setups (fun k ->
        let d, ns = server_setup ~exe ~dir ~refs ~sched k in
        if k < setups - 1 then stop_daemon d;
        (d, ns))
  in
  let d = fst (List.nth setup (setups - 1)) in
  let fields =
    ref [ sprintf "\"setup_ns\": %s" (json_list (fun (_, ns) -> string_of_int ns) setup) ]
  in
  let add k v = fields := sprintf "%S: %s" k v :: !fields in
  let admin = Client.create ~socket:d.socket () in
  Fun.protect
    ~finally:(fun () -> Client.close admin; stop_daemon d)
    (fun () ->
      let phase name seconds ~trace =
        let before = server_stats admin in
        let ops, wall, retries =
          client_phase ~dir ~refs ~socket:d.socket ~seed ~seconds ~sched ~trace
        in
        let delta =
          List.map
            (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before)))
            (server_stats admin)
        in
        add name
          (sprintf "{\"wall_ns\": %d, \"ops\": %s, \"retries\": %d, \"stats_delta\": %s}"
             wall (json_list sample_json ops) retries (counters_json delta))
      in
      if not trace then phase "untraced" seconds ~trace:false
      else begin
        phase "untraced" (seconds /. 2.) ~trace:false;
        phase "traced" (seconds /. 2.) ~trace:true
      end;
      add "peak_rss_kb" (string_of_int (vm_hwm_kb d.pid)));
  if trace then begin
    let handle, layers = in_process_phases ~dir ~refs ~sched in
    add "handle" (json_list sample_json handle);
    add "layers" (json_list sample_json layers);
    fields := xml_probe ~workload ~dir :: !fields;
    append_spans dir
  end;
  write_file (Filename.concat dir "result.json")
    ("{" ^ String.concat ", " (List.rev !fields) ^ "}\n")

(* --- entry point ---------------------------------------------------------- *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "ref"; workload; dir ] -> write_refs workload dir
  | [ "setup"; workload; dir ] -> file_setup ~workload ~dir
  | [ "op"; workload; dir; id; op ] ->
    let op = int_of_string op in
    (* span ids stay unique across the per-operation processes *)
    next_span := op * 1000;
    let json = traced_file_op ~workload ~dir ~op (find_query workload id) in
    append_spans dir;
    print_endline json
  | [ "probe"; workload; dir ] ->
    write_file (Filename.concat dir "probe.json") ("{" ^ xml_probe ~workload ~dir ^ "}\n")
  | [ "server"; workload; dir; seed; seconds; trace; setups; exe ] ->
    measure_server ~workload ~dir ~seed:(int_of_string seed)
      ~seconds:(float_of_string seconds) ~trace:(trace = "1")
      ~setups:(int_of_string setups) ~exe
  | _ ->
    prerr_endline
      "usage: xqbench.exe (ref|setup|probe) WORKLOAD DIR\n\
      \       xqbench.exe op WORKLOAD DIR QUERY-ID OP-ID\n\
      \       xqbench.exe server WORKLOAD DIR SEED SECONDS TRACE SETUPS SERVER-EXE";
    exit 2
