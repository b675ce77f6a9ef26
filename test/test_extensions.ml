(* Tests for the features beyond the paper's core proposal:
   fn:doc / fn:collection, the count clause (XQuery 3.0 lineage), the
   count optimization (paper Section 3.1's "count a literal 1"), and the
   plan explainer. *)

open Xq_lang
open Helpers

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* --- fn:doc and fn:collection -------------------------------------------- *)

let doc_of s = Xq_xml.Xml_parse.parse s

let run_with ?documents ?collections ?default_collection q =
  let empty = doc_of "<empty/>" in
  Xq_xml.Serialize.sequence
    (Xq.run ?documents ?collections ?default_collection empty q)

let doc_tests =
  [
    test "doc() fetches a registered document" (fun () ->
        let d = doc_of "<a><b>1</b></a>" in
        check_string "fetch" "1"
          (run_with ~documents:[ ("books.xml", d) ]
             "string(doc(\"books.xml\")/a/b)"));
    test "doc() on an unknown uri is an error" (fun () ->
        match run_with "doc(\"nope.xml\")" with
        | _ -> Alcotest.fail "expected FORG0001"
        | exception Xq_xdm.Xerror.Error (Xq_xdm.Xerror.FORG0001, _) -> ());
    test "collection() returns the default collection" (fun () ->
        let d1 = doc_of "<o><v>1</v></o>" and d2 = doc_of "<o><v>2</v></o>" in
        check_string "sum over collection" "3"
          (run_with ~default_collection:[ d1; d2 ] "sum(collection()//v)"));
    test "named collections" (fun () ->
        let d1 = doc_of "<o><v>5</v></o>" in
        check_string "named" "5"
          (run_with
             ~collections:[ ("orders", [ d1 ]) ]
             "sum(collection(\"orders\")//v)"));
    test "the paper's experiment shape: group over a collection" (fun () ->
        (* Section 6 runs over a collection of order documents *)
        let orders =
          List.map doc_of
            [ "<order><lineitem><a>X</a></lineitem><lineitem><a>Y</a></lineitem></order>";
              "<order><lineitem><a>X</a></lineitem></order>" ]
        in
        check_string "grouped collection" "X:2 Y:1"
          (run_with ~default_collection:orders
             "for $l in collection()/order/lineitem group by $l/a into $a \
              nest $l into $ls order by string($a) return concat($a, \":\", \
              count($ls))"));
  ]

(* --- the count clause ------------------------------------------------------ *)

let count_tests =
  [
    test "count numbers the tuple stream at its position" (fun () ->
        check_query ~data:"<r/>"
          "for $x in (10, 20, 30) count $c return $c" "1 2 3" "basic";
        check_query ~data:"<r/>"
          "for $x in (30, 10, 20) count $c order by $x return $c"
          "2 3 1" "before sort");
    test "count after where numbers the filtered stream" (fun () ->
        check_query ~data:"<r/>"
          "for $x in (5, 6, 7, 8) where $x mod 2 = 0 count $c return \
           concat($c, \":\", $x)"
          "1:6 2:8" "filtered");
    test "count in the post-group section numbers groups" (fun () ->
        check_query ~data:"<r><v>a</v><v>b</v><v>a</v></r>"
          "for $v in //v group by string($v) into $k count $c order by $k \
           return concat($c, \"=\", $k)"
          "1=a 2=b" "groups numbered");
    test "count variable participates in scoping" (fun () ->
        match
          Static.check_query
            (Parser.parse_query
               "for $x in (1) count $c group by $x into $k return $c")
        with
        | () -> Alcotest.fail "expected XQST0094: $c hidden after group by"
        | exception Xq_xdm.Xerror.Error (Xq_xdm.Xerror.XQST0094, _) -> ());
    test "count clause round-trips through the pretty-printer" (fun () ->
        let q = "for $x in (1, 2) count $c return $c" in
        let ast = Parser.parse_query q in
        check_bool "reparse" true
          (Parser.parse_query (Pretty.query ast) = ast));
    test "count() function still works in clause-adjacent positions" (fun () ->
        check_query ~data:"<r><v/><v/></r>"
          "for $x in (1) let $n := count(//v) return $n" "2" "fn count");
  ]

(* --- the count optimization -------------------------------------------------- *)

let opt_query =
  "for $l in //lineitem group by $l/a into $a nest $l into $items order by \
   string($a) return <r>{string($a), count($items)}</r>"

let unsafe_query =
  (* $items also serialized — not only counted — must NOT be optimized *)
  "for $l in //lineitem group by $l/a into $a nest $l into $items order by \
   string($a) return <r>{count($items)}{$items}</r>"

let multi_valued_query =
  (* nest expr is a path, possibly ≠1 per tuple — must NOT be optimized *)
  "for $l in //lineitem group by $l/a into $a nest $l/b into $bs order by \
   string($a) return <r>{count($bs)}</r>"

let litedata =
  "<o><lineitem><a>X</a><b>1</b><b>2</b></lineitem>\
   <lineitem><a>X</a></lineitem><lineitem><a>Y</a><b>3</b></lineitem></o>"

let optimized body =
  match Xq_rewrite.Rewrite.optimize_counts (Parser.parse_expr body) with
  | Ast.Flwor f ->
    List.exists
      (function
        | Ast.Group_by g ->
          List.exists
            (fun (n : Ast.nest_spec) ->
              match n.Ast.nest_expr with
              | Ast.Literal _ -> true
              | _ -> false)
            g.Ast.nests
        | _ -> false)
      f.Ast.clauses
  | _ -> false

let count_opt_tests =
  [
    test "safe nest-of-for-variable is optimized to a literal" (fun () ->
        check_bool "optimized" true (optimized opt_query));
    test "nest used beyond count() is left alone" (fun () ->
        check_bool "not optimized" false (optimized unsafe_query));
    test "multi-valued nest expression is left alone" (fun () ->
        check_bool "not optimized" false (optimized multi_valued_query));
    test "optimization preserves results" (fun () ->
        let doc = Xq_xml.Xml_parse.parse litedata in
        let q = Parser.parse_query opt_query in
        let plain = Xq_xml.Serialize.sequence (Xq.run_query doc q) in
        let opt =
          Xq_xml.Serialize.sequence
            (Xq.run_query doc (Xq_rewrite.Rewrite.optimize_counts_query q))
        in
        check_string "same" plain opt;
        check_string "values" "<r>X 2</r><r>Y 1</r>" opt);
    test "counting a multi-valued nest counts values, not tuples" (fun () ->
        (* the reason the optimizer must not touch it: X has 2 b's from
           one lineitem, 0 from the other *)
        check_query ~data:litedata multi_valued_query
          "<r>2</r><r>1</r>" "value counts");
  ]

(* --- the plan explainer ------------------------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec scan i =
    i + n <= String.length s && (String.sub s i n = sub || scan (i + 1))
  in
  scan 0

let explain_tests =
  [
    test "hash grouping is reported" (fun () ->
        let plan = Xq_rewrite.Explain.expr (Parser.parse_expr opt_query) in
        check_bool "hash" true (contains plan "HASH GROUP");
        check_bool "nest listed" true (contains plan "NEST"));
    test "using functions force a scan group" (fun () ->
        let q =
          "declare function local:eq($a as item()*, $b as item()*) as \
           xs:boolean { deep-equal($a, $b) }; for $l in //l group by $l/a \
           into $a using local:eq return $a"
        in
        let plan = Xq_rewrite.Explain.query (Parser.parse_query q) in
        check_bool "scan" true (contains plan "SCAN GROUP"));
    test "count-optimized nests are flagged" (fun () ->
        let q =
          Xq_rewrite.Rewrite.optimize_counts (Parser.parse_expr opt_query)
        in
        let plan = Xq_rewrite.Explain.expr q in
        check_bool "flagged" true (contains plan "count-optimized"));
    test "implicit idiom is flagged for rewrite" (fun () ->
        let q =
          "for $a in distinct-values(//l/a) let $items := //l[a = $a] return \
           count($items)"
        in
        let plan = Xq_rewrite.Explain.expr (Parser.parse_expr q) in
        check_bool "note" true (contains plan "implicit-grouping idiom"));
    test "scalar expressions explain to a stub" (fun () ->
        check_bool "stub" true
          (contains (Xq_rewrite.Explain.expr (Parser.parse_expr "1 + 2")) "no FLWOR"));
  ]

(* --- the element-name index --------------------------------------------------- *)

let index_tests =
  [
    test "indexed //name equals the scan" (fun () ->
        let doc = doc_of bib in
        List.iter
          (fun q ->
            check_string q
              (Xq.to_xml (Xq.run doc q))
              (Xq.to_xml (Xq.run ~use_index:true doc q)))
          [ "count(//book)";
            "//book[price > 50]/title";
            "for $b in //book group by $b/year into $y order by $y return string($y)";
            "sum(//book/price)";
            "count(//nothing)" ]);
    test "index applies under longer paths" (fun () ->
        let doc = doc_of "<r><o><l><a>1</a></l></o><o><l><a>2</a></l></o></r>" in
        check_string "path" "2"
          (Xq.to_xml (Xq.run ~use_index:true doc "count(//o/l/a)")));
    test "predicates still apply on indexed steps" (fun () ->
        let doc = doc_of "<r><v>1</v><v>2</v><v>3</v></r>" in
        check_string "pred" "2"
          (Xq.to_xml (Xq.run ~use_index:true doc "string(//v[2])")));
    test "index is not consulted for foreign trees" (fun () ->
        (* //x inside a doc() call has a non-Root start, so it scans *)
        let main = doc_of "<main/>" in
        let other = doc_of "<o><x>7</x></o>" in
        check_string "foreign" "7"
          (Xq.to_xml
             (Xq.run ~use_index:true ~documents:[ ("o.xml", other) ] main
                "string(doc(\"o.xml\")//x)")));
    test "Name_index.build shape" (fun () ->
        let doc = doc_of "<r><a/><b><a/></b></r>" in
        let idx = Xq_engine.Name_index.build doc in
        Alcotest.(check int) "two a's" 2
          (List.length (Xq_engine.Name_index.find idx "a"));
        Alcotest.(check int) "names" 3 (Xq_engine.Name_index.size idx);
        check_bool "doc order" true
          (let ids =
             List.map Xq_xdm.Node.id (Xq_engine.Name_index.find idx "a")
           in
           List.sort compare ids = ids));
  ]

let suites =
  [
    ("ext.doc-collection", doc_tests);
    ("ext.count-clause", count_tests);
    ("ext.count-optimization", count_opt_tests);
    ("ext.explain", explain_tests);
    ("ext.name-index", index_tests);
  ]
