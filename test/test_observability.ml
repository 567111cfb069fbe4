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

(* ---------------- paper claims as shape tests ---------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "xomatiq_claims" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let page_requests () = Rdb.Bufpool.pool_hits () + Rdb.Bufpool.pool_misses ()

(* Rows one run of [q] reads from storage, a count no cache hides:
   every live row of the table for each loop of a sequential scan (its
   fused filter hides them from [operator_rows]), and the rows and
   probes of each index lookup or range scan. The fused filters of the
   indexed figure plans are [IS NOT NULL] and attribute-kind tests that
   every row they fetch passes, so rows returned are rows fetched. *)
let rows_examined ?contains_strategy wh q =
  let db = D.Warehouse.db wh in
  let cat = Rdb.Database.catalog db in
  let t = Xomatiq.Xq2sql.translate ?contains_strategy db q in
  let planned =
    match Rdb.Sql_parser.parse t.sql with
    | Rdb.Sql_ast.Select_stmt sel -> Rdb.Planner.plan_select cat sel
    | _ -> Alcotest.fail "the translation is not a SELECT"
  in
  let obs = Rdb.Obs.create planned.plan in
  ignore (Rdb.Database.run_planned db ~obs planned);
  List.fold_left
    (fun n node ->
      match (node, Rdb.Obs.find obs node) with
      | Rdb.Plan.Seq_scan { table; _ }, Some st ->
        let tbl = Option.get (Rdb.Catalog.find_table cat table) in
        n + (st.loops * Rdb.Table.row_count tbl)
      | (Rdb.Plan.Index_lookup _ | Rdb.Plan.Index_range _), Some st ->
        n + st.rows + st.probes
      | _ -> n)
    0
    (Rdb.Plan.descendants planned.plan)

(* E5 (Section 3.2: indexes chosen from plan analysis make the
   important queries efficient), counted instead of timed, on a disk
   warehouse fully indexed, with contains() as a LIKE scan, and with
   every secondary index dropped. Two counts:

   - rows examined ([rows_examined]): the work of one run;
   - buffer-pool page requests of a warm run. A repeat of an indexed
     plan is served by the decoded-row and posting caches and requests
     no page, while a scan re-reads every page of its table. With those
     caches emptied (the warehouse reopened) the indexed plans request
     more pages than the scans at this scale, because every row fetched
     by rowid pins its page while a scan pins each page once; so the
     warm count shows what the caches buy, and rows examined what the
     indexes buy.

   [operator_rows] cannot tell these configurations apart, because
   fused scan filters hide the rows they examine. *)
let test_e5_index_ablation () =
  with_temp_dir @@ fun dir ->
  let wh = D.Warehouse.create ~data_dir:dir () in
  Fun.protect ~finally:(fun () -> D.Warehouse.close wh) @@ fun () ->
  (match Workload.Genbio.load_universe wh (Lazy.force small_universe) with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  let queries =
    [ ("fig8", Xomatiq.Parser.parse fig8_keyword_query);
      ("fig9", Xomatiq.Parser.parse fig9_subtree_query);
      ("fig11", Xomatiq.Parser.parse fig11_join_query) ]
  in
  let measure ?contains_strategy q =
    let examined = rows_examined ?contains_strategy wh q in
    ignore (Xomatiq.Engine.run ?contains_strategy wh q);
    let before = page_requests () in
    let r = Xomatiq.Engine.run ?contains_strategy wh q in
    (r.rows, examined, page_requests () - before)
  in
  List.iter
    (fun (name, q) ->
      check bool
        (name ^ ": the fully indexed plan has no SeqScan")
        false
        (contains_sub ~needle:"SeqScan" (Xomatiq.Engine.explain wh q)))
    queries;
  let full = List.map (fun (_, q) -> measure q) queries in
  let like =
    List.map (fun (_, q) -> measure ~contains_strategy:`Like_scan q) queries
  in
  let db = D.Warehouse.db wh in
  let cat = Rdb.Database.catalog db in
  List.iter
    (fun tname ->
      match Rdb.Catalog.find_table cat tname with
      | None -> ()
      | Some tbl ->
        List.iter
          (fun idx ->
            let name = Rdb.Index.name idx in
            if not (String.ends_with ~suffix:"_pkey" name) then
              ignore (Rdb.Database.exec_exn db ("DROP INDEX " ^ name)))
          (Rdb.Table.indexes tbl))
    (Rdb.Catalog.table_names cat);
  let bare = List.map (fun (_, q) -> measure q) queries in
  List.iteri
    (fun i (name, _) ->
      let (rows, r_full, p_full), (like_rows, r_like, p_like),
          (bare_rows, r_bare, p_bare) =
        (List.nth full i, List.nth like i, List.nth bare i)
      in
      Printf.printf
        "E5 %s: rows examined full=%d like_scan=%d no_index=%d; warm page \
         requests full=%d like_scan=%d no_index=%d\n"
        name r_full r_like r_bare p_full p_like p_bare;
      check bool (name ^ ": the answer is not empty") true (rows <> []);
      check (list (list string)) (name ^ ": LIKE scan, same answers") rows
        like_rows;
      check (list (list string)) (name ^ ": no indexes, same answers") rows
        bare_rows;
      check bool
        (Printf.sprintf
           "%s: dropping the indexes multiplies rows examined (%d -> %d)" name
           r_full r_bare)
        true
        (r_bare >= 5 * r_full);
      check bool
        (Printf.sprintf
           "%s: dropping the indexes multiplies warm page requests (%d -> %d)"
           name p_full p_bare)
        true
        (p_bare >= 10 * (p_full + 1));
      if name = "fig11" then begin
        check int "fig11 has no contains(): LIKE scan, same rows examined"
          r_full r_like;
        check int "fig11 has no contains(): LIKE scan, same page requests"
          p_full p_like
      end
      else begin
        check bool
          (Printf.sprintf "%s: a LIKE scan multiplies rows examined (%d -> %d)"
             name r_full r_like)
          true
          (r_like >= 5 * r_full);
        check bool
          (Printf.sprintf
             "%s: a LIKE scan multiplies warm page requests (%d -> %d)" name
             p_full p_like)
          true
          (p_like >= 10 * (p_full + 1))
      end)
    queries

(* A synthetic EMBL entry with [features] CDS features: its node count
   grows linearly with [features]. *)
let wide_embl_entry ~features i : D.Embl.t =
  { accession = Printf.sprintf "WB%06d" i;
    division = "INV";
    sequence_length = 120;
    description = "synthetic wide entry";
    keywords = [ "synthetic"; "wide" ];
    organism = "Drosophila melanogaster";
    db_refs = [];
    features =
      List.init features (fun k ->
          { D.Embl.feature_key = "CDS";
            location = Printf.sprintf "%d..%d" (k + 1) (k + 90);
            qualifiers =
              [ { qualifier_type = "gene"; qualifier_value = Printf.sprintf "g%d" k };
                { qualifier_type = "note"; qualifier_value = "generated feature" } ] });
    sequence = String.make 120 'a' }

let rec tree_size = function
  | Gxml.Tree.Text _ -> 1
  | Gxml.Tree.Element e ->
    List.fold_left (fun n c -> n + tree_size c) (1 + List.length e.attrs)
      e.children

(* Nodes per document, the size of one reconstructed document, and the
   operator rows of a selective query for that document's accession,
   on a warehouse of 25 entries with [features] CDS features each.
   The harvest skips ANALYZE, so both sizes get the same plan and the
   counts differ by document size alone. *)
let e6_counts ~features =
  let wh = D.Warehouse.create () in
  Fun.protect ~finally:(fun () -> D.Warehouse.close wh) @@ fun () ->
  let src = D.Warehouse.embl_source ~division:"inv" in
  D.Warehouse.register_source wh src;
  let ndocs = 25 in
  (match
     D.Warehouse.harvest ~analyze:false wh src
       (D.Embl.render (List.init ndocs (wide_embl_entry ~features)))
   with
   | Ok n -> check int "documents loaded" ndocs n
   | Error m -> Alcotest.fail m);
  let db = D.Warehouse.db wh in
  let doc_id =
    Option.get
      (D.Shred.document_id db ~collection:"hlx_embl.inv"
         ~name:(List.hd (D.Warehouse.documents wh ~collection:"hlx_embl.inv")))
  in
  let rebuilt =
    match D.Shred.reconstruct db ~doc_id with
    | Ok doc -> tree_size (Gxml.Tree.Element doc.Gxml.Tree.root)
    | Error m -> Alcotest.fail m
  in
  let q =
    Xomatiq.Parser.parse
      {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
WHERE $a//embl_accession_number = "WB000000"
RETURN $a//description|}
  in
  let r = Xomatiq.Engine.run ~trace:true wh q in
  check (list (list string)) "the selective query finds its entry"
    [ [ "synthetic wide entry" ] ] r.rows;
  (D.Warehouse.node_count wh / ndocs, rebuilt, (Option.get r.trace).operator_rows)

(* E6 (Section 3.3: "reconstruction of entire large XML document from
   the tuples is expensive compared to the query processing time"), as
   counts: rebuilding a document touches every one of its nodes, while
   a selective query's operator rows stay flat as documents grow. *)
let test_e6_reconstruction_vs_query () =
  let nodes5, rebuilt5, rows5 = e6_counts ~features:5 in
  let nodes500, rebuilt500, rows500 = e6_counts ~features:500 in
  Printf.printf
    "E6: nodes/doc %d -> %d, reconstructed nodes %d -> %d, selective query \
     operator rows %d -> %d\n"
    nodes5 nodes500 rebuilt5 rebuilt500 rows5 rows500;
  check bool "documents grow more than 50x" true (nodes500 > 50 * nodes5);
  check bool "reconstruction grows with the document" true
    (rebuilt500 > 50 * rebuilt5);
  check bool
    (Printf.sprintf "selective query rows stay flat (%d -> %d)" rows5 rows500)
    true
    (rows500 * 10 <= rows5 * 11)

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
      ( "claims",
        [ Alcotest.test_case
            "E5 indexes cut rows examined and warm page requests" `Quick
            test_e5_index_ablation;
          Alcotest.test_case "E6 selective query flat as documents grow"
            `Quick test_e6_reconstruction_vs_query ] );
      ( "golden-plans",
        [ Alcotest.test_case "paper queries" `Quick test_golden_plans;
          Alcotest.test_case "figure queries vectorized" `Quick
            test_vectorized_plans ] ) ]
