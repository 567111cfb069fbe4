(* The translated-plan cache on the engine's textual query path: repeat
   runs hit the cache and return identical results; any DML, DDL or
   ANALYZE bumps the catalog version and invalidates every cached plan. *)

let check = Alcotest.check
let rows_t = Alcotest.(list (list string))

module D = Datahounds

let universe =
  Workload.Genbio.generate
    { Workload.Genbio.seed = 3; n_enzymes = 20; n_embl = 20; n_sprot = 20;
      n_citations = 10; cdc6_rate = 0.1; ketone_rate = 0.25; ec_link_rate = 0.8;
      seq_length = 40 }

let fresh_warehouse () =
  let wh = D.Warehouse.create () in
  (match Workload.Genbio.load_universe wh universe with
   | Ok () -> ()
   | Error m -> failwith m);
  wh

let q =
  {|FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id|}

let hits () = fst (Xomatiq.Engine.cache_stats ())
let misses () = snd (Xomatiq.Engine.cache_stats ())

let test_hits_identical () =
  let wh = fresh_warehouse () in
  Xomatiq.Engine.cache_clear ();
  let r1 = Xomatiq.Engine.run_text wh q in
  check Alcotest.int "first run misses" 0 (hits ());
  check Alcotest.int "first run recorded as miss" 1 (misses ());
  let r2 = Xomatiq.Engine.run_text wh q in
  check Alcotest.int "second run hits" 1 (hits ());
  check rows_t "cached rows identical" r1.Xomatiq.Engine.rows r2.Xomatiq.Engine.rows;
  check Alcotest.(list string) "cached labels identical" r1.Xomatiq.Engine.labels
    r2.Xomatiq.Engine.labels;
  check Alcotest.string "cached sql identical" r1.Xomatiq.Engine.sql
    r2.Xomatiq.Engine.sql;
  (* the key is whitespace-normalized: reformatting still hits *)
  let reformatted = String.map (function '\n' -> ' ' | c -> c) q in
  let r3 = Xomatiq.Engine.run_text wh ("  " ^ reformatted ^ "  ") in
  check Alcotest.int "reformatted text hits" 2 (hits ());
  check rows_t "reformatted rows identical" r1.Xomatiq.Engine.rows
    r3.Xomatiq.Engine.rows;
  (* the contains-strategy is part of the key *)
  let r4 = Xomatiq.Engine.run_text ~contains_strategy:`Like_scan wh q in
  check Alcotest.int "other strategy misses" 2 (misses ());
  check rows_t "strategies agree on this query" r1.Xomatiq.Engine.rows
    r4.Xomatiq.Engine.rows;
  (* traced and reference runs bypass the cache entirely *)
  let h, m = Xomatiq.Engine.cache_stats () in
  ignore (Xomatiq.Engine.run_text ~trace:true wh q);
  ignore (Xomatiq.Engine.run_text ~mode:`Reference wh q);
  check (Alcotest.pair Alcotest.int Alcotest.int) "bypass paths leave stats alone"
    (h, m) (Xomatiq.Engine.cache_stats ());
  D.Warehouse.close wh

let load_one_more wh =
  (* DML through the loader: inserts bump the catalog version *)
  let e : D.Enzyme.t =
    { ec_number = "9.9.9.9"; description = "cache invalidation enzyme";
      alternate_names = []; catalytic_activities = [ "An extra ketone reaction" ];
      cofactors = []; comments = []; prosite_refs = []; swissprot_refs = [];
      diseases = [] }
  in
  match
    D.Warehouse.load_document wh ~collection:"hlx_enzyme.DEFAULT"
      ~name:(D.Enzyme_xml.document_name e)
      (D.Enzyme_xml.to_document e)
  with
  | Ok () -> ()
  | Error m -> failwith m

let test_invalidation () =
  let wh = fresh_warehouse () in
  let db = D.Warehouse.db wh in
  Xomatiq.Engine.cache_clear ();
  let r1 = Xomatiq.Engine.run_text wh q in
  ignore (Xomatiq.Engine.run_text wh q);
  check Alcotest.int "warm" 1 (hits ());
  (* 1: INSERTs (document load) invalidate, and the re-planned query sees
     the new data *)
  load_one_more wh;
  let r2 = Xomatiq.Engine.run_text wh q in
  check Alcotest.int "insert invalidates (no new hit)" 1 (hits ());
  check Alcotest.int "insert forces a re-translation" 2 (misses ());
  check Alcotest.bool "new document is visible" true
    (List.length r2.Xomatiq.Engine.rows = List.length r1.Xomatiq.Engine.rows + 1);
  check Alcotest.bool "new row present" true
    (List.mem [ "9.9.9.9" ] r2.Xomatiq.Engine.rows);
  ignore (Xomatiq.Engine.run_text wh q);
  check Alcotest.int "warm again" 2 (hits ());
  (* 2: ANALYZE invalidates *)
  ignore (Rdb.Database.exec_exn db "ANALYZE");
  ignore (Xomatiq.Engine.run_text wh q);
  check Alcotest.int "ANALYZE invalidates" 3 (misses ());
  ignore (Xomatiq.Engine.run_text wh q);
  check Alcotest.int "warm after ANALYZE" 3 (hits ());
  (* 3: DDL invalidates *)
  ignore (Rdb.Database.exec_exn db "CREATE TABLE scratch (a INT)");
  ignore (Xomatiq.Engine.run_text wh q);
  check Alcotest.int "DDL invalidates" 4 (misses ());
  (* 4: raw DML invalidates *)
  ignore (Rdb.Database.exec_exn db "INSERT INTO scratch VALUES (1)");
  ignore (Xomatiq.Engine.run_text wh q);
  check Alcotest.int "INSERT invalidates" 5 (misses ());
  ignore (Rdb.Database.exec_exn db "DELETE FROM scratch WHERE a = 1");
  let r3 = Xomatiq.Engine.run_text wh q in
  check Alcotest.int "DELETE invalidates" 6 (misses ());
  check rows_t "results stable throughout" r2.Xomatiq.Engine.rows
    r3.Xomatiq.Engine.rows;
  (* cache_clear resets counters *)
  Xomatiq.Engine.cache_clear ();
  check (Alcotest.pair Alcotest.int Alcotest.int) "cleared" (0, 0)
    (Xomatiq.Engine.cache_stats ());
  D.Warehouse.close wh

let () =
  Alcotest.run "plan-cache"
    [ ( "cache",
        [ Alcotest.test_case "hits return identical results" `Quick
            test_hits_identical;
          Alcotest.test_case "DML/DDL/ANALYZE invalidate" `Quick
            test_invalidation ] ) ]
