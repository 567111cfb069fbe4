(* Differential harness: the full bioinformatics query mix evaluated in
   both engine modes — `Relational (XQ2SQL + relational engine, the
   XomatiQ way) and `Reference (in-memory evaluation over reconstructed
   documents) — asserting identical (labels, rows) for every query.

   This is the paper's correctness argument at scale: the generic-schema
   SQL translation computes exactly what the XML semantics says. Three
   seeds vary the universe AND the generated query parameters. *)

let check = Alcotest.check
let string = Alcotest.string
let list = Alcotest.list

let rows_testable = list (list string)

module D = Datahounds

let universe_of seed =
  Workload.Genbio.generate
    { Workload.Genbio.seed; n_enzymes = 30; n_embl = 40; n_sprot = 35;
      n_citations = 20; cdc6_rate = 0.1; ketone_rate = 0.2; ec_link_rate = 0.8;
      seq_length = 60 }

let run_mix seed () =
  let u = universe_of seed in
  let wh = D.Warehouse.create () in
  (match Workload.Genbio.load_universe wh u with
   | Ok () -> ()
   | Error m -> failwith m);
  let mix = Workload.Query_mix.mixed ~seed ~universe:u ~per_class:4 in
  Alcotest.(check bool) "mix covers every task class" true
    (List.sort_uniq compare (List.map fst mix)
     = List.sort compare Workload.Query_mix.all_classes);
  List.iter
    (fun (cls, text) ->
      let name = Workload.Query_mix.class_name cls in
      let relational = Xomatiq.Engine.run_text ~mode:`Relational wh text in
      let reference = Xomatiq.Engine.run_text ~mode:`Reference wh text in
      check (list string)
        (Printf.sprintf "%s labels agree (seed %d): %s" name seed text)
        reference.labels relational.labels;
      check rows_testable
        (Printf.sprintf "%s rows agree (seed %d): %s" name seed text)
        reference.rows relational.rows)
    mix;
  D.Warehouse.close wh

(* Both contains() rewrites must agree with the reference semantics, not
   just the default keyword-index probe. *)
let run_contains_strategies () =
  let seed = 5 in
  let u = universe_of seed in
  let wh = D.Warehouse.create () in
  (match Workload.Genbio.load_universe wh u with
   | Ok () -> ()
   | Error m -> failwith m);
  let queries =
    Workload.Query_mix.generate ~seed ~universe:u ~count:6
      Workload.Query_mix.Keyword_browse
  in
  List.iter
    (fun text ->
      let reference = Xomatiq.Engine.run_text ~mode:`Reference wh text in
      List.iter
        (fun (label, strategy) ->
          let relational =
            Xomatiq.Engine.run_text ~contains_strategy:strategy wh text
          in
          check rows_testable
            (Printf.sprintf "contains via %s: %s" label text)
            reference.rows relational.rows)
        [ ("keyword-index", `Keyword_index); ("like-scan", `Like_scan) ])
    queries;
  D.Warehouse.close wh

(* Regression: contains() keywords holding LIKE metacharacters. The
   Like_scan rewrite used to interpolate the raw keyword into a LIKE
   pattern, so "100%" matched "1005..." and "alpha_2" matched "alphax2".
   The escaped rewrite (LIKE ... ESCAPE '\') must agree with the
   reference semantics and match only the literal text. *)
let run_like_escape_regression () =
  let wh = D.Warehouse.create () in
  let src = D.Warehouse.embl_source ~division:"inv" in
  D.Warehouse.register_source wh src;
  let load i desc =
    let e : D.Embl.t =
      { accession = Printf.sprintf "ESC%03d" i; division = "INV";
        sequence_length = 12; description = desc; keywords = [];
        organism = "Saccharomyces cerevisiae"; db_refs = []; features = [];
        sequence = "acgtacgtacgt" }
    in
    match
      D.Warehouse.load_document wh ~collection:"hlx_embl.inv"
        ~name:(D.Embl_xml.document_name e)
        (D.Embl_xml.to_document e)
    with
    | Ok () -> ()
    | Error m -> failwith m
  in
  load 1 "progress 100% complete";
  load 2 "progress 1005 done";
  load 3 "alpha_2 subunit of the kinase";
  load 4 "alphax2 subunit of the kinase";
  let q kw =
    Printf.sprintf
      {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
WHERE contains($a//description, "%s")
RETURN $a//embl_accession_number|}
      kw
  in
  List.iter
    (fun kw ->
      let reference = Xomatiq.Engine.run_text ~mode:`Reference wh (q kw) in
      let like =
        Xomatiq.Engine.run_text ~contains_strategy:`Like_scan wh (q kw)
      in
      check rows_testable
        (Printf.sprintf "like-scan agrees with reference for %S" kw)
        reference.rows like.rows)
    [ "100%"; "alpha_2"; "subunit" ];
  let like kw =
    (Xomatiq.Engine.run_text ~contains_strategy:`Like_scan wh (q kw)).Xomatiq.Engine.rows
  in
  check rows_testable "100% no longer over-matches 1005" [ [ "ESC001" ] ]
    (like "100%");
  check rows_testable "alpha_2's underscore is literal" [ [ "ESC003" ] ]
    (like "alpha_2");
  D.Warehouse.close wh

let strategies = [ ("keyword-index", `Keyword_index); ("like-scan", `Like_scan) ]

(* ---------------- structural join vs the reference evaluator ----------------

   The planner's structural (interval containment) merge join must
   compute exactly what the XML semantics says: over random document
   trees, for both contains() rewrites, the rendered table must be
   byte-identical to Xomatiq.Eval's. *)

let structural_queries =
  [ {|FOR $e IN document("c")/list
WHERE contains($e//entry, "cdc6")
RETURN $e//item|};
    {|FOR $e IN document("c")/list
WHERE $e//a = "alpha"
RETURN $e//b|} ]

let structural_join_prop =
  let open QCheck.Gen in
  let tag_gen = oneofl [ "a"; "b"; "item" ] in
  let text_gen =
    oneofl [ "cdc6"; "kinase cdc6"; "alpha"; "12"; "hello world" ]
  in
  let rec elem_gen depth =
    let children =
      if depth = 0 then text_gen >|= fun t -> [ Gxml.Tree.Text t ]
      else
        list_size (int_range 1 3)
          (frequency
             [ (1, text_gen >|= fun t -> Gxml.Tree.Text t);
               (2, elem_gen (depth - 1) >|= fun e -> Gxml.Tree.Element e) ])
    in
    map2 (fun tag kids -> Gxml.Tree.element tag kids) tag_gen children
  in
  let doc_gen =
    (* a document: <list> of <entry> subtrees holding random trees *)
    list_size (int_range 1 3) (elem_gen 2) >|= fun entries ->
    Gxml.Tree.element "list"
      (List.map
         (fun e ->
           Gxml.Tree.Element
             (Gxml.Tree.element "entry" [ Gxml.Tree.Element e ]))
         entries)
  in
  let docs_gen = list_size (int_range 1 3) doc_gen in
  QCheck.Test.make ~count:30
    ~name:"structural join byte-identical to the reference evaluator"
    (QCheck.make docs_gen
       ~print:(fun docs ->
         String.concat "\n" (List.map Gxml.Printer.element_to_string docs)))
    (fun docs ->
      let wh = D.Warehouse.create () in
      List.iteri
        (fun i root ->
          match
            D.Warehouse.load_document ~validate:false wh ~collection:"c"
              ~name:(Printf.sprintf "d%d" i)
              (Gxml.Tree.document root)
          with
          | Ok () -> ()
          | Error m -> QCheck.Test.fail_report m)
        docs;
      List.iter
        (fun text ->
          let reference =
            Xomatiq.Engine.result_to_table
              (Xomatiq.Engine.run_text ~mode:`Reference wh text)
          in
          List.iter
            (fun (slabel, strategy) ->
              let got =
                Xomatiq.Engine.result_to_table
                  (Xomatiq.Engine.run_text ~contains_strategy:strategy wh text)
              in
              if got <> reference then
                QCheck.Test.fail_reportf
                  "structural/%s differs from reference on %s:\n%s\nvs\n%s"
                  slabel text got reference)
            strategies)
        structural_queries;
      D.Warehouse.close wh;
      true)

(* The property above would pass vacuously if the planner never picked
   the structural join; pin that it actually fires, on the random-tree
   queries and on the paper's query mix. *)
let run_structural_plan_chosen () =
  let wh = D.Warehouse.create () in
  List.iteri
    (fun i root ->
      match
        D.Warehouse.load_document ~validate:false wh ~collection:"c"
          ~name:(Printf.sprintf "d%d" i)
          (Gxml.Tree.document root)
      with
      | Ok () -> ()
      | Error m -> failwith m)
    [ Gxml.Tree.element "list"
        [ Gxml.Tree.Element
            (Gxml.Tree.element "entry"
               [ Gxml.Tree.Element
                   (Gxml.Tree.element "item" [ Gxml.Tree.Text "cdc6" ]);
                 Gxml.Tree.Element
                   (Gxml.Tree.element "a" [ Gxml.Tree.Text "alpha" ]);
                 Gxml.Tree.Element
                   (Gxml.Tree.element "b" [ Gxml.Tree.Text "beta" ]) ]) ] ];
  List.iter
    (fun text ->
      let plan = Xomatiq.Engine.explain wh (Xomatiq.Parser.parse text) in
      check Alcotest.bool
        (Printf.sprintf "plan uses StructuralJoin: %s" text)
        true
        (let len = String.length plan in
         let pat = "StructuralJoin" in
         let rec at i =
           i + String.length pat <= len
           && (String.sub plan i (String.length pat) = pat || at (i + 1))
         in
         at 0))
    structural_queries;
  D.Warehouse.close wh

(* ---------------- per-rewrite-rule property tests ----------------

   Each rewrite rule, applied ALONE to the planner's raw plan (the plan
   before the rewrite pass), must preserve the executor's exact row list
   on that raw plan; the full pipeline must too. Random region/point
   tables stand in for the XML interval encoding; the query pool covers
   containment joins, IN/EXISTS subqueries with inner ORDER BY
   (sort-elim bait), BETWEEN, IS NULL, DISTINCT, GROUP BY and LIMIT. *)

let rule_fires : (string, int) Hashtbl.t = Hashtbl.create 8

let note_fire name n =
  let prev = Option.value ~default:0 (Hashtbl.find_opt rule_fires name) in
  Hashtbl.replace rule_fires name (prev + n)

let vec_db (regions, points) =
  let db = Rdb.Database.open_in_memory () in
  ignore
    (Rdb.Database.exec_exn db
       "CREATE TABLE region (doc INTEGER, lo INTEGER, hi INTEGER, tag TEXT)");
  ignore
    (Rdb.Database.exec_exn db
       "CREATE TABLE pt (doc INTEGER, pos INTEGER, val TEXT)");
  let text = function Some s -> Rdb.Value.Text s | None -> Rdb.Value.Null in
  let ins table rows =
    if rows <> [] then
      match Rdb.Database.insert_rows db ~table rows with
      | Ok _ -> ()
      | Error m -> failwith m
  in
  ins "region"
    (List.map
       (fun (doc, lo, len, tag) ->
         [| Rdb.Value.Int doc; Rdb.Value.Int lo; Rdb.Value.Int (lo + len);
            text tag |])
       regions);
  ins "pt"
    (List.map
       (fun (doc, pos, v) ->
         [| Rdb.Value.Int doc; Rdb.Value.Int pos; text v |])
       points);
  db

let vec_queries k =
  [ Printf.sprintf
      "SELECT tag, lo FROM region WHERE lo < %d ORDER BY lo, hi, tag LIMIT 7" k;
    Printf.sprintf "SELECT DISTINCT tag FROM region WHERE hi >= %d ORDER BY tag"
      (k / 2);
    "SELECT r.tag, p.val FROM region r, pt p WHERE r.doc = p.doc AND \
     p.pos > r.lo AND p.pos <= r.hi";
    Printf.sprintf
      "SELECT r.tag, p.pos FROM region r, pt p WHERE r.doc = p.doc AND \
       p.pos BETWEEN r.lo AND r.hi AND p.val IS NOT NULL \
       ORDER BY p.pos, r.tag, r.lo LIMIT %d"
      (k + 1);
    Printf.sprintf
      "SELECT val FROM pt WHERE doc IN \
       (SELECT doc FROM region WHERE lo < %d ORDER BY hi)"
      k;
    "SELECT tag FROM region r WHERE EXISTS \
     (SELECT 1 FROM pt p WHERE p.doc = r.doc AND p.pos > r.lo ORDER BY p.pos)";
    Printf.sprintf
      "SELECT doc, COUNT(*), MIN(pos), MAX(pos) FROM pt WHERE pos <= %d \
       GROUP BY doc ORDER BY doc"
      k;
    "SELECT r.tag, p.val FROM region r, pt p WHERE r.doc = p.doc AND 1 < 2";
    "SELECT val FROM pt WHERE 1 < 2";
    "SELECT x.a FROM (SELECT doc AS a, pos AS b FROM pt) x WHERE x.a > 1";
    Printf.sprintf "SELECT val, pos FROM pt WHERE val IS NULL OR pos BETWEEN \
                    %d AND %d"
      k (k + 5) ]

let plan_raw db sql =
  match Rdb.Sql_parser.parse sql with
  | Rdb.Sql_ast.Select_stmt sel ->
    Rdb.Planner.plan_select_raw (Rdb.Database.catalog db) sel
  | _ -> failwith "not a SELECT"

let rows_literal rows =
  String.concat "\n"
    (List.map
       (fun row ->
         String.concat "|"
           (List.map Rdb.Value.to_literal (Array.to_list row)))
       rows)

let check_rules_on db sql =
  let cat = Rdb.Database.catalog db in
  let raw = plan_raw db sql in
  let rows plan = List.of_seq (Rdb.Executor.run cat plan) in
  let baseline = rows raw in
  List.iter
    (fun rule ->
      let rewritten, fires = Rdb.Rewrite.apply_rule cat rule raw in
      note_fire rule fires;
      let got = rows rewritten in
      if got <> baseline then
        QCheck.Test.fail_reportf
          "rule %s alone changed results on %s:\n%s\nvs baseline\n%s" rule sql
          (rows_literal got) (rows_literal baseline))
    Rdb.Rewrite.rule_names;
  let full, report = Rdb.Rewrite.apply cat raw in
  List.iter (fun (rule, n) -> note_fire rule n) report;
  let got = rows full in
  if got <> baseline then
    QCheck.Test.fail_reportf
      "full rewrite pipeline changed results on %s:\n%s\nvs\n%s" sql
      (rows_literal got) (rows_literal baseline)

let rewrite_rule_prop =
  let open QCheck.Gen in
  let tag = oneofl [ Some "a"; Some "b"; Some "c"; None ] in
  let value = oneofl [ Some "x"; Some "y"; Some "z"; None ] in
  let region_row =
    map2
      (fun (doc, lo) (len, t) -> (doc, lo, len, t))
      (pair (int_range 1 3) (int_range 0 20))
      (pair (int_range 0 10) tag)
  in
  let pt_row =
    map2 (fun (doc, pos) v -> (doc, pos, v))
      (pair (int_range 1 4) (int_range 0 30))
      value
  in
  let data_gen =
    pair
      (pair
         (list_size (int_range 0 20) region_row)
         (list_size (int_range 0 30) pt_row))
      (int_range 0 30)
  in
  QCheck.Test.make ~count:20
    ~name:"each rewrite rule alone preserves results on random plans"
    (QCheck.make data_gen
       ~print:(fun ((regions, points), k) ->
         Printf.sprintf "k=%d regions=[%s] points=[%s]" k
           (String.concat "; "
              (List.map
                 (fun (d, lo, len, t) ->
                   Printf.sprintf "(%d,%d,+%d,%s)" d lo len
                     (Option.value ~default:"NULL" t))
                 regions))
           (String.concat "; "
              (List.map
                 (fun (d, p, v) ->
                   Printf.sprintf "(%d,%d,%s)" d p
                     (Option.value ~default:"NULL" v))
                 points))))
    (fun ((data : _ * _), k) ->
      let db = vec_db data in
      Fun.protect ~finally:(fun () -> Rdb.Database.close db) @@ fun () ->
      let queries = vec_queries k in
      List.iter (check_rules_on db) queries;
      true)

(* The property would pass vacuously for a rule that never fires; the
   query pool is built so every rule in the catalog fires somewhere
   (IN/EXISTS with inner ORDER BY for sort-elim, a constant residual
   conjunct over a join for filter-pushdown, one over a bare scan for
   filter-merge, narrow SELECTs over wide joins for prune, a derived
   table for proj-fuse). Must run after the property test. *)
let run_rules_exercised () =
  List.iter
    (fun rule ->
      let n = Option.value ~default:0 (Hashtbl.find_opt rule_fires rule) in
      Alcotest.(check bool)
        (Printf.sprintf "rewrite rule %s fired at least once (got %d)" rule n)
        true (n > 0))
    Rdb.Rewrite.rule_names

let () =
  Alcotest.run "differential"
    [ ( "query-mix",
        [ Alcotest.test_case "seed 11" `Quick (run_mix 11);
          Alcotest.test_case "seed 23" `Quick (run_mix 23);
          Alcotest.test_case "seed 47" `Quick (run_mix 47) ] );
      ( "contains-strategies",
        [ Alcotest.test_case "keyword vs like-scan" `Quick
            run_contains_strategies;
          Alcotest.test_case "LIKE metacharacter escaping" `Quick
            run_like_escape_regression ] );
      ( "structural-join",
        QCheck_alcotest.to_alcotest structural_join_prop
        :: [ Alcotest.test_case "planner picks StructuralJoin" `Quick
               run_structural_plan_chosen ] );
      ( "rewrite-rules",
        [ QCheck_alcotest.to_alcotest rewrite_rule_prop;
          Alcotest.test_case "every rule fired somewhere" `Quick
            run_rules_exercised ] ) ]
