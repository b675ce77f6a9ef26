(* The run configuration: the environment resolver (driven through an
   injected lookup, never the process environment), the one precedence
   rule, and the scope a run executes under — a request's settings
   neither outlive it nor leak into a concurrent one, and EXPLAIN ANALYZE
   reports the degree the query really ran at. *)

open Helpers
module Config = Xq_config.Config
module Pipeline = Xq_pipeline.Pipeline
module Optimizer = Xq_algebra.Optimizer

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let resolve bindings = Config.of_env (fun name -> List.assoc_opt name bindings)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- the resolver ---------------------------------------------------------- *)

let test_builtin_defaults () =
  let c = resolve [] in
  check_bool "strategy hash" true (c.Config.strategy = Optimizer.Hash);
  check_int "parallel" 1 c.Config.parallel;
  check_int "batch" 4096 c.Config.batch;
  check_bool "optimize off" false c.Config.optimize;
  check_bool "pushdown on" true c.Config.agg_pushdown;
  check_bool "no kill switch" false c.Config.no_stream;
  check_bool "stream unset" true (c.Config.stream = None);
  check_bool "spill on" true c.Config.spill;
  check_string "spill dir" (Filename.get_temp_dir_name ()) c.Config.spill_dir;
  check_bool "no limits" true
    (c.Config.timeout_ms = None && c.Config.max_groups = None
    && c.Config.max_mem_mb = None && c.Config.spill_at_mb = None
    && c.Config.max_input_bytes = None && c.Config.max_depth = None);
  check_bool "no faults" true (c.Config.faults = None)

let test_parallel () =
  let p v = (resolve [ ("XQ_PARALLEL", v) ]).Config.parallel in
  check_int "plain" 3 (p "3");
  check_int "trimmed" 2 (p " 2 ");
  check_int "capped" Config.degree_cap (p "1000");
  check_int "zero is 1" 1 (p "0");
  check_int "negative is 1" 1 (p "-4");
  check_int "abc is 1" 1 (p "abc");
  check_int "empty is 1" 1 (p "")

let test_batch () =
  let b v = (resolve [ ("XQ_BATCH", v) ]).Config.batch in
  check_int "plain" 7 (b "7");
  check_int "one" 1 (b "1");
  check_int "clamped to 2^20" (1 lsl 20) (b "5000000");
  check_int "zero is the default" 4096 (b "0");
  check_int "negative is the default" 4096 (b "-3");
  check_int "abc is the default" 4096 (b "abc");
  check_int "empty is the default" 4096 (b "")

let test_limits () =
  let limits v =
    let c =
      resolve
        (List.map
           (fun n -> (n, v))
           [ "XQ_TIMEOUT"; "XQ_MAX_GROUPS"; "XQ_MAX_MEM"; "XQ_SPILL_AT";
             "XQ_MAX_INPUT"; "XQ_MAX_DEPTH" ])
    in
    [ c.Config.timeout_ms; c.Config.max_groups; c.Config.max_mem_mb;
      c.Config.spill_at_mb; c.Config.max_input_bytes; c.Config.max_depth ]
  in
  check_bool "positive" true (List.for_all (( = ) (Some 9)) (limits " 9"));
  List.iter
    (fun v ->
      check_bool (Printf.sprintf "%S is unset" v) true
        (List.for_all (( = ) None) (limits v)))
    [ "0"; "-1"; "abc"; ""; "1.5" ]

let test_strategy () =
  let s v = (resolve [ ("XQ_GROUP_STRATEGY", v) ]).Config.strategy in
  check_bool "sort" true (s "sort" = Optimizer.Sort);
  check_bool "AUTO, any case" true (s " AUTO " = Optimizer.Auto);
  check_bool "hash" true (s "hash" = Optimizer.Hash);
  check_bool "unknown is hash" true (s "bogus" = Optimizer.Hash)

let test_switches () =
  let no_stream v = (resolve [ ("XQ_NO_STREAM", v) ]).Config.no_stream in
  List.iter
    (fun v -> check_bool ("XQ_NO_STREAM=" ^ v) true (no_stream v))
    [ "1"; "true"; "yes" ];
  List.iter
    (fun v -> check_bool ("XQ_NO_STREAM=" ^ v) false (no_stream v))
    [ "0"; "no"; "" ];
  let spill v = (resolve [ ("XQ_NO_SPILL", v) ]).Config.spill in
  check_bool "XQ_NO_SPILL=1" false (spill "1");
  List.iter
    (fun v -> check_bool ("XQ_NO_SPILL=" ^ v) true (spill v))
    [ "0"; "yes"; "" ];
  let pushdown v = (resolve [ ("XQ_NO_AGG_PUSHDOWN", v) ]).Config.agg_pushdown in
  check_bool "XQ_NO_AGG_PUSHDOWN=1" false (pushdown "1");
  check_bool "XQ_NO_AGG_PUSHDOWN set to anything" false (pushdown "0")

let test_spill_dir_and_faults () =
  let dir bindings = (resolve bindings).Config.spill_dir in
  check_string "XQ_SPILL_DIR first" "/a"
    (dir [ ("XQ_SPILL_DIR", "/a"); ("TMPDIR", "/b") ]);
  check_string "TMPDIR next" "/b" (dir [ ("TMPDIR", "/b") ]);
  check_string "empty XQ_SPILL_DIR falls through" "/b"
    (dir [ ("XQ_SPILL_DIR", ""); ("TMPDIR", "/b") ]);
  check_bool "XQ_FAULTS passed through" true
    ((resolve [ ("XQ_FAULTS", "7:0.5") ]).Config.faults = Some "7:0.5")

let test_precedence () =
  let env = resolve [ ("XQ_PARALLEL", "2"); ("XQ_BATCH", "9") ] in
  let server =
    Config.over
      { Config.default_knobs with k_parallel = Some 3; k_timeout_ms = Some 50 }
      env
  in
  let request =
    Config.over { Config.default_knobs with k_parallel = Some 5 } server
  in
  check_int "request beats server default" 5 request.Config.parallel;
  check_bool "server default beats environment" true
    (request.Config.timeout_ms = Some 50);
  check_int "environment beats built-in" 9 request.Config.batch;
  check_int "degree clamped" Config.degree_cap
    (Config.over { Config.default_knobs with k_parallel = Some 999 } env)
      .Config.parallel;
  check_int "degree 0 clamped to 1" 1
    (Config.over { Config.default_knobs with k_parallel = Some 0 } env)
      .Config.parallel;
  check_int "batch clamped" 1
    (Config.over { Config.default_knobs with k_batch = Some 0 } env)
      .Config.batch;
  check_bool "empty layer changes nothing" true
    (Config.over Config.default_knobs env = env)

let resolver_tests =
  [
    test "built-in defaults" test_builtin_defaults;
    test "XQ_PARALLEL: cap, 0 and abc" test_parallel;
    test "XQ_BATCH clamping" test_batch;
    test "limits: non-positive and non-numeric are unset" test_limits;
    test "XQ_GROUP_STRATEGY: unknown is hash" test_strategy;
    test "XQ_NO_STREAM, XQ_NO_SPILL and XQ_NO_AGG_PUSHDOWN spellings"
      test_switches;
    test "XQ_SPILL_DIR, TMPDIR and XQ_FAULTS" test_spill_dir_and_faults;
    test "request, then server default, then environment" test_precedence;
  ]

(* --- the run scope --------------------------------------------------------- *)

let group_source =
  "for $i in //i group by $i/k into $k nest $i into $g order by $k \
   return <r>{$k, count($g)}</r>"

let group_doc () =
  let open Xq_xml.Builder in
  doc
    (el "r"
       (List.init 60 (fun i -> el "i" [ el_text "k" (string_of_int (i mod 4)) ])))

(* The degree a run executes at, seen from inside it (the document
   loads inside the run). *)
let degree_inside knobs =
  let seen = ref 0 in
  let load_doc () =
    seen := (Config.current ()).Config.parallel;
    group_doc ()
  in
  ignore (Pipeline.run ~knobs ~source:group_source ~load_doc ());
  !seen

let test_no_sequential_leak () =
  let env_degree = (Config.env ()).Config.parallel in
  check_int "the request runs at its degree" 3
    (degree_inside { Pipeline.default_knobs with k_parallel = Some 3 });
  check_int "a later default run is back at the environment's" env_degree
    (degree_inside Pipeline.default_knobs);
  check_int "and so is code outside any run" env_degree
    (Config.current ()).Config.parallel

let explain ~parallel ~batch =
  (Pipeline.run ~scope:`Domain ~explain_analyze:true
     ~knobs:
       {
         Pipeline.default_knobs with
         k_parallel = Some parallel;
         k_batch = Some batch;
       }
     ~source:group_source ~load_doc:group_doc ())
    .Pipeline.r_output

let test_concurrent_isolation () =
  let worker ~parallel ~batch () =
    let ok = ref true in
    for _ = 1 to 25 do
      let out = explain ~parallel ~batch in
      if
        not
          (contains out (Printf.sprintf "par=%d" parallel)
          && contains out (Printf.sprintf "batch=%d" batch))
      then ok := false
    done;
    !ok
  in
  let a = Domain.spawn (worker ~parallel:2 ~batch:5) in
  let b = Domain.spawn (worker ~parallel:3 ~batch:7) in
  let ok_a = Domain.join a and ok_b = Domain.join b in
  check_bool "first request saw only its own par= and batch=" true ok_a;
  check_bool "second request saw only its own par= and batch=" true ok_b

let test_explain_reports_env_degree () =
  let env3 = resolve [ ("XQ_PARALLEL", "3") ] in
  let doc = group_doc () in
  let q = Xq.parse group_source in
  let analyzed =
    Config.with_config env3 (fun () ->
        Xq_rewrite.Explain.analyze_query ~timings:false ~context_node:doc q)
  in
  check_bool "Explain.analyze_query shows par=3" true
    (contains analyzed "par=3");
  let piped =
    (Pipeline.run ~base:env3 ~explain_analyze:true ~source:group_source
       ~load_doc:group_doc ())
      .Pipeline.r_output
  in
  check_bool "Pipeline EXPLAIN ANALYZE shows par=3" true (contains piped "par=3")

(* Tests run from _build/default/test; the CLI sits next door. *)
let cli_exe = Filename.concat ".." (Filename.concat "bin" "xq_cli.exe")

let cli_output args =
  let dir = Filename.temp_file "xq_config" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path name = Filename.concat dir name in
  let write name s =
    let oc = open_out_bin (path name) in
    output_string oc s;
    close_out oc
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      write "q.xq" group_source;
      write "d.xml" (Xq_xml.Serialize.node (group_doc ()));
      let cmd =
        Printf.sprintf "XQ_PARALLEL=3 %s %s %s -i %s > %s 2>/dev/null"
          (Filename.quote cli_exe) args
          (Filename.quote (path "q.xq"))
          (Filename.quote (path "d.xml"))
          (Filename.quote (path "out"))
      in
      check_int (args ^ " exits 0") 0 (Sys.command cmd);
      In_channel.with_open_bin (path "out") In_channel.input_all)

let test_cli_reports_env_degree () =
  check_bool "xq run --explain-analyze shows par=3" true
    (contains (cli_output "run --explain-analyze") "par=3");
  (* the par column is the grouping row's next-to-last *)
  let par_column line =
    match List.rev (String.split_on_char ' ' line |> List.filter (( <> ) "")) with
    | _ :: par :: _ -> Some par
    | _ -> None
  in
  check_bool "xq profile shows degree 3" true
    (List.exists
       (fun line -> contains line "GROUP" && par_column line = Some "3")
       (String.split_on_char '\n' (cli_output "profile")))

let scope_tests =
  [
    test "a request's degree does not outlive it" test_no_sequential_leak;
    test "concurrent requests keep their own degree and batch size"
      test_concurrent_isolation;
    test "EXPLAIN ANALYZE reports the environment's degree"
      test_explain_reports_env_degree;
    test "xq run --explain-analyze and xq profile report XQ_PARALLEL"
      test_cli_reports_env_degree;
  ]

let suites = [ ("config-resolver", resolver_tests); ("config-scope", scope_tests) ]
