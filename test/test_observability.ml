(* Observability-layer tests: Obs primitives, instrumented execution
   (EXPLAIN ANALYZE), engine pipeline traces, warehouse load stats, and
   golden plan snapshots for the three paper queries.

   Golden snapshots live in test/golden/*.expected. To update them after
   an intentional planner change:

     XOMATIQ_UPDATE_GOLDEN=1 XOMATIQ_GOLDEN_DIR=test/golden dune runtest

   (XOMATIQ_GOLDEN_DIR points at the source tree; dune runs tests inside
   the _build sandbox.) *)

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool
let list = Alcotest.list

module D = Datahounds

(* ---------------- fixtures (same universe as test_xomatiq) ------------- *)

let small_universe =
  lazy
    (Workload.Genbio.generate
       { Workload.Genbio.default_config with
         n_enzymes = 40; n_embl = 60; n_sprot = 50;
         cdc6_rate = 0.1; ketone_rate = 0.2; ec_link_rate = 0.8;
         seq_length = 60 })

let loaded_warehouse =
  lazy
    (let wh = D.Warehouse.create () in
     (match Workload.Genbio.load_universe wh (Lazy.force small_universe) with
      | Ok () -> ()
      | Error m -> failwith m);
     wh)

let fig9_subtree_query =
  {|FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description|}

let fig8_keyword_query =
  {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any)
AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number|}

let fig11_join_query =
  {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description|}

let contains_sub ~needle s =
  let nl = String.length needle and sl = String.length s in
  let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
  go 0

(* ---------------- Obs primitives ---------------- *)

let test_counter_and_timer () =
  let c = Rdb.Obs.Counter.create () in
  Rdb.Obs.Counter.incr c;
  Rdb.Obs.Counter.incr ~by:4 c;
  check int "counter accumulates" 5 (Rdb.Obs.Counter.value c);
  Rdb.Obs.Counter.reset c;
  check int "counter resets" 0 (Rdb.Obs.Counter.value c);
  let t = Rdb.Obs.Timer.create () in
  let v = Rdb.Obs.Timer.time t (fun () -> 42) in
  check int "timer is transparent" 42 v;
  check int "one sample" 1 (Rdb.Obs.Timer.samples t);
  check bool "time is nonnegative" true (Rdb.Obs.Timer.total_s t >= 0.);
  Rdb.Obs.Timer.add_s t 0.25;
  check bool "add_s accumulates" true (Rdb.Obs.Timer.total_s t >= 0.25);
  check int "add_s counts a sample" 2 (Rdb.Obs.Timer.samples t)

let test_histogram () =
  let h = Rdb.Obs.Histogram.create () in
  check int "empty count" 0 (Rdb.Obs.Histogram.count h);
  check string "empty rendering" "empty" (Rdb.Obs.Histogram.to_string h);
  check bool "empty quantile" true (Rdb.Obs.Histogram.quantile h 0.5 = 0.);
  List.iter (Rdb.Obs.Histogram.observe h) [ 1e-6; 1e-5; 1e-4; 1e-3; 1e-2 ];
  check int "count" 5 (Rdb.Obs.Histogram.count h);
  let p50 = Rdb.Obs.Histogram.quantile h 0.5 in
  let p95 = Rdb.Obs.Histogram.quantile h 0.95 in
  check bool "quantiles ordered" true (p50 <= p95);
  check bool "p95 bounds the largest sample's bucket" true (p95 >= 1e-2)

(* ---------------- EXPLAIN ANALYZE over plain SQL ---------------- *)

let test_explain_analyze_sql () =
  let db = Rdb.Database.open_in_memory () in
  ignore
    (Rdb.Database.exec_exn db
       "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
  for i = 1 to 20 do
    ignore
      (Rdb.Database.exec_exn db
         (Printf.sprintf "INSERT INTO t VALUES (%d, 'v%d')" i i))
  done;
  (match Rdb.Database.explain_analyze db "SELECT v FROM t WHERE id = 7" with
   | Error m -> Alcotest.fail m
   | Ok out ->
     check bool "has per-operator rows" true (contains_sub ~needle:"rows=1" out);
     check bool "index probe counted" true (contains_sub ~needle:"probes=1" out);
     check bool "uses the pkey index" true (contains_sub ~needle:"t_pkey" out);
     check bool "has a totals line" true (contains_sub ~needle:"Result: 1 rows" out));
  (* the statement form round-trips through exec as an Explained result *)
  (match Rdb.Database.exec db "EXPLAIN ANALYZE SELECT COUNT(1) FROM t" with
   | Ok (Rdb.Database.Explained out) ->
     check bool "aggregate over a scan" true (contains_sub ~needle:"rows=20" out)
   | Ok _ -> Alcotest.fail "expected Explained"
   | Error m -> Alcotest.fail m);
  (* only SELECTs execute under EXPLAIN ANALYZE *)
  (match Rdb.Database.exec db "EXPLAIN ANALYZE INSERT INTO t VALUES (99, 'x')" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "EXPLAIN ANALYZE of DML should be rejected")

let test_explain_parse_roundtrip () =
  match Rdb.Sql_parser.parse "EXPLAIN ANALYZE SELECT 1" with
  | Rdb.Sql_ast.Explain_analyze _ as s ->
    check string "prints back" "EXPLAIN ANALYZE SELECT 1"
      (Rdb.Sql_ast.stmt_to_string s)
  | _ -> Alcotest.fail "expected Explain_analyze"

(* ---------------- EXPLAIN ANALYZE on the Fig. 11 join ---------------- *)

let test_explain_analyze_fig11 () =
  let wh = Lazy.force loaded_warehouse in
  let ast = Xomatiq.Parser.parse fig11_join_query in
  let out = Xomatiq.Engine.explain_analyze wh ast in
  check bool "annotated operators" true (contains_sub ~needle:"rows=" out);
  check bool "index probes surfaced" true (contains_sub ~needle:"probes=" out);
  (* the acceptance check proper: non-zero row and probe counters *)
  let result = Xomatiq.Engine.run ~trace:true wh ast in
  match result.Xomatiq.Engine.trace with
  | None -> Alcotest.fail "traced run returned no trace"
  | Some tr ->
    check bool "rows flowed through operators" true (tr.operator_rows > 0);
    check bool "index probes happened" true (tr.index_probes > 0);
    check bool "plan names its indexes" true (tr.indexes <> []);
    check int "trace row count matches result" (List.length result.rows)
      tr.result_rows;
    (match tr.plan with
     | Some plan ->
       check bool "annotated plan has rows=" true (contains_sub ~needle:"rows=" plan)
     | None -> Alcotest.fail "relational trace should carry a plan")

(* ---------------- pipeline traces ---------------- *)

let stage_names tr = List.map fst tr.Xomatiq.Engine.stages

let all_six = [ "parse"; "xq2sql"; "sql-parse"; "plan"; "execute"; "tag" ]

let test_trace_six_stages () =
  let wh = Lazy.force loaded_warehouse in
  (* run_text: the parse stage is really measured *)
  let r = Xomatiq.Engine.run_text ~trace:true wh fig9_subtree_query in
  (match r.trace with
   | None -> Alcotest.fail "no trace"
   | Some tr ->
     check (list string) "relational stages" all_six (stage_names tr);
     List.iter
       (fun (name, s) ->
         check bool (name ^ " nonnegative") true (s >= 0.))
       tr.stages;
     let rendered = Xomatiq.Engine.trace_to_string tr in
     List.iter
       (fun name ->
         check bool ("profile mentions " ^ name) true
           (contains_sub ~needle:name rendered))
       all_six);
  (* pre-parsed AST: parse stage present but zero *)
  let ast = Xomatiq.Parser.parse fig9_subtree_query in
  (match (Xomatiq.Engine.run ~trace:true wh ast).trace with
   | None -> Alcotest.fail "no trace"
   | Some tr ->
     check (list string) "stages with pre-parsed AST" all_six (stage_names tr);
     check bool "parse stage is zero" true (List.assoc "parse" tr.stages = 0.));
  (* reference mode reports the same shape *)
  (match (Xomatiq.Engine.run ~mode:`Reference ~trace:true wh ast).trace with
   | None -> Alcotest.fail "no reference trace"
   | Some tr ->
     check (list string) "reference stages" all_six (stage_names tr);
     check bool "no indexes in reference mode" true (tr.indexes = []))

let test_trace_off_by_default () =
  let wh = Lazy.force loaded_warehouse in
  let r = Xomatiq.Engine.run_text wh fig9_subtree_query in
  check bool "no trace unless requested" true (r.trace = None)

(* ---------------- warehouse load stats ---------------- *)

let test_harvest_stats () =
  let wh = D.Warehouse.create () in
  D.Warehouse.register_source wh D.Warehouse.enzyme_source;
  (match D.Warehouse.harvest_stats wh D.Warehouse.enzyme_source D.Enzyme.sample_entry with
   | Error m -> Alcotest.fail m
   | Ok st ->
     check int "one document" 1 st.D.Warehouse.docs;
     check int "node rows match the warehouse" (D.Warehouse.node_count wh)
       st.D.Warehouse.nodes;
     check bool "keywords were indexed" true (st.D.Warehouse.keywords > 0);
     check bool "paths were added" true (st.D.Warehouse.new_paths > 0);
     check bool "stage times nonnegative" true
       (st.D.Warehouse.transform_s >= 0. && st.D.Warehouse.validate_s >= 0.
        && st.D.Warehouse.shred_s >= 0.);
     check bool "report mentions docs" true
       (contains_sub ~needle:"1 docs" (D.Warehouse.load_stats_to_string st)));
  D.Warehouse.close wh

(* ---------------- golden plan snapshots ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let golden name actual =
  match Sys.getenv_opt "XOMATIQ_UPDATE_GOLDEN" with
  | Some _ ->
    let dir =
      Option.value (Sys.getenv_opt "XOMATIQ_GOLDEN_DIR") ~default:"golden"
    in
    let oc = open_out_bin (Filename.concat dir (name ^ ".expected")) in
    output_string oc actual;
    close_out oc
  | None ->
    let path = Filename.concat "golden" (name ^ ".expected") in
    if not (Sys.file_exists path) then
      Alcotest.fail
        (Printf.sprintf
           "missing golden file %s — create it with XOMATIQ_UPDATE_GOLDEN=1 \
            XOMATIQ_GOLDEN_DIR=test/golden dune runtest"
           path)
    else
      check string
        (name
         ^ ": plan changed (if intentional, refresh with \
            XOMATIQ_UPDATE_GOLDEN=1 XOMATIQ_GOLDEN_DIR=test/golden dune \
            runtest)")
        (read_file path) actual

let test_golden_plans () =
  let wh = Lazy.force loaded_warehouse in
  List.iter
    (fun (name, q) ->
      golden name (Xomatiq.Engine.explain wh (Xomatiq.Parser.parse q)))
    [ ("fig8-keyword", fig8_keyword_query);
      ("fig9-subtree", fig9_subtree_query);
      ("fig11-join", fig11_join_query) ]

(* the three figure queries must actually take the vectorized path: the
   rewrite footer and a fused scan+filter prove the batch executor and
   the rewrite pass both see them *)
let test_vectorized_plans () =
  let wh = Lazy.force loaded_warehouse in
  List.iter
    (fun (name, q) ->
      let s = Xomatiq.Engine.explain wh (Xomatiq.Parser.parse q) in
      check bool
        (name ^ ": explain has vectorized footer")
        true
        (contains_sub ~needle:"Vectorized: batch=" s);
      check bool
        (name ^ ": a scan+filter was fused")
        true
        (contains_sub ~needle:"[fused=scan+filter]" s))
    [ ("fig8-keyword", fig8_keyword_query);
      ("fig9-subtree", fig9_subtree_query);
      ("fig11-join", fig11_join_query) ]

(* ---------------- runner ---------------- *)

let () =
  Alcotest.run "observability"
    [ ( "obs",
        [ Alcotest.test_case "counter and timer" `Quick test_counter_and_timer;
          Alcotest.test_case "histogram" `Quick test_histogram ] );
      ( "explain-analyze",
        [ Alcotest.test_case "plain SQL" `Quick test_explain_analyze_sql;
          Alcotest.test_case "parse roundtrip" `Quick test_explain_parse_roundtrip;
          Alcotest.test_case "fig11 join" `Quick test_explain_analyze_fig11 ] );
      ( "trace",
        [ Alcotest.test_case "six stages" `Quick test_trace_six_stages;
          Alcotest.test_case "off by default" `Quick test_trace_off_by_default ] );
      ( "load-stats",
        [ Alcotest.test_case "harvest stats" `Quick test_harvest_stats ] );
      ( "golden-plans",
        [ Alcotest.test_case "paper queries" `Quick test_golden_plans;
          Alcotest.test_case "figure queries vectorized" `Quick
            test_vectorized_plans ] ) ]
