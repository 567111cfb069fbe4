(* Benchmark harness regenerating every experiment in EXPERIMENTS.md.

   The paper (a system paper) reports no numeric tables; its figures are
   functional artifacts and its performance statements are prose claims
   (Sections 2.2, 3.2, 3.3). Each experiment below regenerates one of
   those artifacts or claims:

     E1  Fig. 8  keyword query across EMBL + Swiss-Prot
     E2  Fig. 9  sub-tree query on ENZYME
     E3  Fig. 11 join query EMBL x ENZYME on EC number
     E4  Fig. 1  Data Hounds pipeline throughput (flat -> XML -> tuples)
     E5  claim: indexes chosen from optimizer plans make queries efficient
         (index ablation table)
     E6  claim: reconstructing entire documents is expensive relative to
         query processing (reconstruction vs selective query)
     E7  claim: the relational backend beats a native in-memory XML
         processor as data grows (scale sweep with crossover)
     E8  claim: incremental update integrates changes exactly once
         (sync cost: unchanged vs mutated snapshots)
     E8-throughput  the gRNA service layer: closed-loop concurrent TCP
         clients over the query server, QPS + latency percentiles
         sweeping client count x worker domains (BENCH_E8.json)

   Bechamel micro-benchmarks cover E1-E4, E6 and E8 at a fixed scale; the
   sweep tables for E5-E7 are printed afterwards. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let scale = try int_of_string (Sys.getenv "XOMATIQ_BENCH_SCALE") with Not_found -> 150

(* Scaling experiments (E6-scaling, E8-throughput, E11-replication) need
   real cores to separate their cells; say so instead of silently
   printing a flat table on a 1-core host. *)
let warn_if_single_core name =
  if Domain.recommended_domain_count () = 1 then
    Printf.printf
      "  warning: %s is a scaling benchmark but this host exposes only 1 \
       core; its cells cannot separate and scaling floors are not meaningful \
       here\n%!"
      name

let universe_of n =
  Workload.Genbio.generate
    { Workload.Genbio.seed = 42; n_enzymes = n; n_embl = n; n_sprot = n;
      n_citations = 0; cdc6_rate = 0.03; ketone_rate = 0.08; ec_link_rate = 0.5;
      seq_length = 120 }

let build_warehouse ?(indexes = true) u =
  let wh = Datahounds.Warehouse.create () in
  (match Workload.Genbio.load_universe wh u with
   | Ok () -> ()
   | Error m -> failwith m);
  if not indexes then begin
    (* E5 ablation: drop every secondary index, keeping only primary keys.
       Enumerated from the catalog so new warehouse indexes are ablated
       automatically; PK indexes are named <table>_pkey by the engine. *)
    let db = Datahounds.Warehouse.db wh in
    let cat = Rdb.Database.catalog db in
    let secondary =
      List.concat_map
        (fun tname ->
          match Rdb.Catalog.find_table cat tname with
          | None -> []
          | Some tbl ->
            List.filter_map
              (fun idx ->
                let name = Rdb.Index.name idx in
                if String.length name > 5
                   && String.sub name (String.length name - 5) 5 = "_pkey"
                then None
                else Some name)
              (Rdb.Table.indexes tbl))
        (Rdb.Catalog.table_names cat)
    in
    List.iter
      (fun name -> ignore (Rdb.Database.exec_exn db ("DROP INDEX " ^ name)))
      secondary
  end;
  wh

let fig8_keyword_query =
  {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number|}

let fig9_subtree_query =
  {|FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description|}

let fig11_join_query =
  {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description|}

let queries =
  [ ("E1-keyword-fig8", fig8_keyword_query);
    ("E2-subtree-fig9", fig9_subtree_query);
    ("E3-join-fig11", fig11_join_query) ]

let universe = universe_of scale
let warehouse = build_warehouse universe
let enzyme_flat = Workload.Genbio.enzyme_flat universe

(* parsed ASTs, reused *)
let asts = List.map (fun (n, q) -> (n, Xomatiq.Parser.parse q)) queries

(* prime the reference evaluator's reconstruction cache so E1-E3 reference
   timings measure evaluation, not reconstruction *)
let reference_provider = Xomatiq.Eval.of_warehouse warehouse

let () =
  List.iter
    (fun c -> ignore (reference_provider c))
    [ "hlx_embl.inv"; "hlx_sprot.all"; "hlx_enzyme.DEFAULT" ]

(* ------------------------------------------------------------------ *)
(* Bechamel tests                                                      *)
(* ------------------------------------------------------------------ *)

let query_tests =
  List.concat_map
    (fun (name, ast) ->
      [ Test.make ~name:(name ^ "/relational")
          (Staged.stage (fun () ->
               ignore (Xomatiq.Engine.run ~mode:`Relational warehouse ast)));
        Test.make ~name:(name ^ "/reference")
          (Staged.stage (fun () ->
               ignore (Xomatiq.Eval.eval reference_provider ast))) ])
    asts

let pipeline_test =
  (* E4: the Fig. 1 pipeline — parse flat file, build XML, validate, shred *)
  Test.make ~name:"E4-pipeline/enzyme-flat-to-tuples"
    (Staged.stage (fun () ->
         let wh = Datahounds.Warehouse.create () in
         Datahounds.Warehouse.register_source wh Datahounds.Warehouse.enzyme_source;
         match
           Datahounds.Warehouse.harvest wh Datahounds.Warehouse.enzyme_source
             enzyme_flat
         with
         | Ok _ -> ()
         | Error m -> failwith m))

let reconstruction_tests =
  (* E6: whole-document reconstruction vs a selective query on one doc *)
  let db = Datahounds.Warehouse.db warehouse in
  let name = List.hd (Datahounds.Warehouse.documents warehouse ~collection:"hlx_embl.inv") in
  let doc_id =
    match Datahounds.Shred.document_id db ~collection:"hlx_embl.inv" ~name with
    | Some id -> id
    | None -> failwith "fixture doc missing"
  in
  let selective =
    Xomatiq.Parser.parse
      (Printf.sprintf
         {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
WHERE $a//embl_accession_number = "%s"
RETURN $a//description|}
         name)
  in
  [ Test.make ~name:"E6-reconstruct/full-document"
      (Staged.stage (fun () ->
           match Datahounds.Shred.reconstruct db ~doc_id with
           | Ok _ -> ()
           | Error m -> failwith m));
    Test.make ~name:"E6-reconstruct/selective-query"
      (Staged.stage (fun () ->
           ignore (Xomatiq.Engine.run warehouse selective))) ]

let all_tests =
  Test.make_grouped ~name:"xomatiq" ~fmt:"%s %s"
    (query_tests @ [ pipeline_test ] @ reconstruction_tests)

let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances all_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let print_bechamel results =
  Printf.printf "%-48s %14s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 64 '-');
  let rows = ref [] in
  Hashtbl.iter
    (fun _ tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> rows := (name, est) :: !rows
          | _ -> ())
        tbl)
    results;
  List.iter
    (fun (name, ns) ->
      let display =
        if ns > 1e9 then Printf.sprintf "%8.2f  s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-48s %14s\n" name display)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Sweep tables (E5, E6 by size, E7)                                   *)
(* ------------------------------------------------------------------ *)

let time_median ?(runs = 3) f =
  let samples =
    List.init runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (runs / 2)

let ms t = t *. 1000.0

let print_e5 () =
  print_newline ();
  Printf.printf "E5: ablations (scale=%d docs/source) — paper Section 3.2 claim\n" scale;
  Printf.printf "%-18s %10s %10s %10s %10s %7s %9s %9s\n" "query" "full (ms)"
    "like-scan" "no-index" "worst/full" "probes" "op rows" "rows-noix";
  Printf.printf "%s\n" (String.make 90 '-');
  let bare = build_warehouse ~indexes:false universe in
  let counters wh ast =
    match (Xomatiq.Engine.run ~trace:true wh ast).Xomatiq.Engine.trace with
    | Some tr -> tr
    | None -> failwith "traced run returned no trace"
  in
  List.iter
    (fun (name, ast) ->
      let with_idx = time_median (fun () -> ignore (Xomatiq.Engine.run warehouse ast)) in
      let like_scan =
        time_median (fun () ->
            ignore (Xomatiq.Engine.run ~contains_strategy:`Like_scan warehouse ast))
      in
      let without = time_median (fun () -> ignore (Xomatiq.Engine.run bare ast)) in
      (* real operator counters, from a profiled run of each configuration *)
      let full_tr = counters warehouse ast in
      let bare_tr = counters bare ast in
      Printf.printf "%-18s %10.2f %10.2f %10.2f %9.1fx %7d %9d %9d\n" name
        (ms with_idx) (ms like_scan) (ms without)
        (Float.max like_scan without /. with_idx)
        full_tr.Xomatiq.Engine.index_probes full_tr.Xomatiq.Engine.operator_rows
        bare_tr.Xomatiq.Engine.operator_rows;
      Printf.printf "%-18s   indexes: %s\n" ""
        (match full_tr.Xomatiq.Engine.indexes with
         | [] -> "(none)"
         | l -> String.concat ", " l))
    asts;
  Datahounds.Warehouse.close bare

let print_e5_analyze () =
  print_newline ();
  Printf.printf
    "E5b: cost-based planning — ad-hoc query time before/after ANALYZE (scale=%d)\n"
    scale;
  (* two configurations: the fully-indexed warehouse (index choice already
     constrains plans) and the index-ablated one, where join ordering is
     driven purely by cardinality estimates and statistics matter most *)
  let one_config label wh =
    Printf.printf "%s:\n" label;
    Printf.printf "%-18s %12s %12s %8s %12s\n" "query" "before (ms)"
      "after (ms)" "speedup" "plan changed";
    Printf.printf "%s\n" (String.make 68 '-');
    let db = Datahounds.Warehouse.db wh in
    let plans_before =
      List.map (fun (name, ast) -> (name, Xomatiq.Engine.explain wh ast)) asts
    in
    let before =
      List.map
        (fun (name, ast) ->
          (name, time_median (fun () -> ignore (Xomatiq.Engine.run wh ast))))
        asts
    in
    let t0 = Unix.gettimeofday () in
    (match Rdb.Database.exec db "ANALYZE" with
     | Ok _ -> ()
     | Error m -> failwith m);
    let analyze_t = Unix.gettimeofday () -. t0 in
    List.iter
      (fun (name, ast) ->
        let after = time_median (fun () -> ignore (Xomatiq.Engine.run wh ast)) in
        let changed = Xomatiq.Engine.explain wh ast <> List.assoc name plans_before in
        let b = List.assoc name before in
        Printf.printf "%-18s %12.2f %12.2f %7.2fx %12s\n" name (ms b) (ms after)
          (b /. after)
          (if changed then "yes" else "no"))
      asts;
    Printf.printf "(ANALYZE itself: %.2f ms over %d tables)\n" (ms analyze_t)
      (List.length (Rdb.Catalog.table_names (Rdb.Database.catalog db)));
    Datahounds.Warehouse.close wh
  in
  one_config "all indexes" (build_warehouse universe);
  print_newline ();
  one_config "secondary indexes ablated" (build_warehouse ~indexes:false universe)

let print_e5_cache () =
  print_newline ();
  Printf.printf "E5c: translated-plan cache on the textual query path (scale=%d)\n" scale;
  Printf.printf "%-18s %12s %12s %8s\n" "query" "cold (ms)" "cached (ms)" "speedup";
  Printf.printf "%s\n" (String.make 54 '-');
  Xomatiq.Engine.cache_clear ();
  List.iter
    (fun (name, text) ->
      let t0 = Unix.gettimeofday () in
      ignore (Xomatiq.Engine.run_text warehouse text);
      let cold = Unix.gettimeofday () -. t0 in
      let cached =
        time_median (fun () -> ignore (Xomatiq.Engine.run_text warehouse text))
      in
      Printf.printf "%-18s %12.2f %12.2f %7.2fx\n" name (ms cold) (ms cached)
        (cold /. cached))
    queries;
  let hits, misses = Xomatiq.Engine.cache_stats () in
  Printf.printf "cache: %d hits / %d misses (hit rate %.0f%%)\n" hits misses
    (100. *. float_of_int hits /. float_of_int (max 1 (hits + misses)))

(* Synthetic EMBL entry with [n] CDS features — element count (and so
   tuple count per document) grows linearly with [n]. *)
let wide_embl_entry ~features i : Datahounds.Embl.t =
  { accession = Printf.sprintf "WB%06d" i;
    division = "INV";
    sequence_length = 120;
    description = "synthetic wide entry";
    keywords = [ "synthetic"; "wide" ];
    organism = "Drosophila melanogaster";
    db_refs = [];
    features =
      List.init features (fun k ->
          { Datahounds.Embl.feature_key = "CDS";
            location = Printf.sprintf "%d..%d" (k + 1) (k + 90);
            qualifiers =
              [ { qualifier_type = "gene"; qualifier_value = Printf.sprintf "g%d" k };
                { qualifier_type = "note"; qualifier_value = "generated feature" } ] });
    sequence = String.make 120 'a' }

let print_e6_sweep () =
  print_newline ();
  Printf.printf "E6: full-document reconstruction vs selective query, by document size\n";
  Printf.printf "%-10s %12s %18s %18s %8s\n" "features" "nodes/doc" "reconstruct (ms)"
    "selective (ms)" "ratio";
  Printf.printf "%s\n" (String.make 70 '-');
  List.iter
    (fun features ->
      let wh = Datahounds.Warehouse.create () in
      let src = Datahounds.Warehouse.embl_source ~division:"inv" in
      Datahounds.Warehouse.register_source wh src;
      let ndocs = 25 in
      List.iter
        (fun i ->
          let e = wide_embl_entry ~features i in
          match
            Datahounds.Warehouse.load_document wh ~collection:"hlx_embl.inv"
              ~name:(Datahounds.Embl_xml.document_name e)
              (Datahounds.Embl_xml.to_document e)
          with
          | Ok () -> ()
          | Error m -> failwith m)
        (List.init ndocs (fun i -> i));
      let db = Datahounds.Warehouse.db wh in
      let name = List.hd (Datahounds.Warehouse.documents wh ~collection:"hlx_embl.inv") in
      let doc_id =
        Option.get (Datahounds.Shred.document_id db ~collection:"hlx_embl.inv" ~name)
      in
      let nodes = Datahounds.Warehouse.node_count wh / ndocs in
      let selective =
        Xomatiq.Parser.parse
          (Printf.sprintf
             {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
WHERE $a//embl_accession_number = "%s" RETURN $a//description|}
             name)
      in
      let trec =
        time_median (fun () ->
            match Datahounds.Shred.reconstruct db ~doc_id with
            | Ok _ -> ()
            | Error m -> failwith m)
      in
      let tsel = time_median (fun () -> ignore (Xomatiq.Engine.run wh selective)) in
      Printf.printf "%-10d %12d %18.3f %18.3f %7.1fx\n" features nodes (ms trec)
        (ms tsel) (trec /. tsel);
      Datahounds.Warehouse.close wh)
    [ 5; 50; 500 ]

let print_e4_sweep () =
  print_newline ();
  Printf.printf "E4: Data Hounds pipeline throughput by input size\n";
  Printf.printf "%-10s %14s %16s %16s\n" "entries" "load (ms)" "entries/s" "nodes/s";
  Printf.printf "%s\n" (String.make 60 '-');
  List.iter
    (fun n ->
      let u =
        Workload.Genbio.generate
          { Workload.Genbio.seed = 9; n_enzymes = n; n_embl = 0; n_sprot = 0;
            n_citations = 0; cdc6_rate = 0.0; ketone_rate = 0.05;
            ec_link_rate = 0.0; seq_length = 60 }
      in
      let flat = Workload.Genbio.enzyme_flat u in
      let nodes = ref 0 in
      let t =
        time_median (fun () ->
            let wh = Datahounds.Warehouse.create () in
            Datahounds.Warehouse.register_source wh Datahounds.Warehouse.enzyme_source;
            (match
               Datahounds.Warehouse.harvest wh Datahounds.Warehouse.enzyme_source flat
             with
             | Ok _ -> nodes := Datahounds.Warehouse.node_count wh
             | Error m -> failwith m);
            Datahounds.Warehouse.close wh)
      in
      Printf.printf "%-10d %14.1f %16.0f %16.0f\n" n (ms t)
        (float_of_int n /. t)
        (float_of_int !nodes /. t))
    [ 100; 400; 1600 ]

let print_e8 () =
  print_newline ();
  Printf.printf "E8: incremental sync cost by mutation rate (%d ENZYME docs)\n" scale;
  Printf.printf "%-18s %16s %10s %16s\n" "snapshot" "first sync (ms)" "updated"
    "re-sync (ms)";
  Printf.printf "%s\n" (String.make 64 '-');
  let docs enzymes =
    List.map
      (fun (e : Datahounds.Enzyme.t) ->
        (e.ec_number, Datahounds.Enzyme_xml.to_document e))
      enzymes
  in
  (* snapshot what the warehouse actually holds: the flat-file parse, not
     the raw generator records (rendering normalises punctuation) *)
  let warehoused_enzymes = Datahounds.Enzyme.parse_many enzyme_flat in
  List.iter
    (fun (label, fraction) ->
      (* a fresh warehouse per point: sync mutates state *)
      let wh = build_warehouse universe in
      let snapshot =
        if fraction = 0.0 then docs warehoused_enzymes
        else
          docs (Workload.Genbio.mutate_enzymes ~seed:7 ~fraction warehoused_enzymes)
      in
      (* cold sync: integrates the mutations *)
      let t0 = Unix.gettimeofday () in
      let updated =
        match
          Datahounds.Sync.sync_documents wh ~collection:"hlx_enzyme.DEFAULT" snapshot
        with
        | Ok r -> r.updated
        | Error m -> failwith m
      in
      let cold = Unix.gettimeofday () -. t0 in
      (* steady state: the same snapshot again is pure change detection *)
      let steady =
        time_median (fun () ->
            match
              Datahounds.Sync.sync_documents wh ~collection:"hlx_enzyme.DEFAULT"
                snapshot
            with
            | Ok _ -> ()
            | Error m -> failwith m)
      in
      Printf.printf "%-18s %16.2f %10d %16.2f\n" label (ms cold) updated (ms steady);
      Datahounds.Warehouse.close wh)
    [ ("identical", 0.0); ("10pct-mutated", 0.10); ("50pct-mutated", 0.50) ]

let print_e7 () =
  print_newline ();
  Printf.printf "E7: relational vs native-XML baseline across scale — Section 2.2 claim\n";
  Printf.printf "%-18s %8s %12s %12s %12s %8s\n" "query" "docs" "ad-hoc (ms)"
    "prepared" "reference" "ref/prep";
  Printf.printf "%s\n" (String.make 76 '-');
  List.iter
    (fun n ->
      let u = universe_of n in
      let wh = build_warehouse u in
      let provider = Xomatiq.Eval.of_warehouse wh in
      List.iter
        (fun c -> ignore (provider c))
        [ "hlx_embl.inv"; "hlx_sprot.all"; "hlx_enzyme.DEFAULT" ];
      List.iter
        (fun (name, q) ->
          let ast = Xomatiq.Parser.parse q in
          let prepared = Xomatiq.Engine.prepare wh ast in
          let rel = time_median (fun () -> ignore (Xomatiq.Engine.run wh ast)) in
          let prep =
            time_median (fun () -> ignore (Xomatiq.Engine.run_prepared prepared))
          in
          let reference =
            time_median (fun () -> ignore (Xomatiq.Eval.eval provider ast))
          in
          Printf.printf "%-18s %8d %12.2f %12.2f %12.2f %7.1fx\n" name n (ms rel)
            (ms prep) (ms reference) (reference /. prep))
        queries;
      Datahounds.Warehouse.close wh)
    [ 30; 100; 300; 1000 ]

(* ------------------------------------------------------------------ *)
(* E6-scaling: domain-pool parallelism (Fig. 8/9/11 mix)               *)
(* ------------------------------------------------------------------ *)

let scaling_jobs = [ 1; 2; 4; 8 ]

let print_e6_scaling () =
  print_newline ();
  Printf.printf
    "E6-scaling: Fig. 8/9/11 mix across domain counts (scale=%d, host cores=%d)\n"
    scale
    (Domain.recommended_domain_count ());
  warn_if_single_core "E6-scaling";
  Printf.printf
    "  planner goes parallel for scans of >= %s rows (XOMATIQ_PAR_THRESHOLD)\n"
    (match Sys.getenv_opt "XOMATIQ_PAR_THRESHOLD" with
     | Some s when String.trim s <> "" -> s
     | _ -> "2000");
  Printf.printf "%-22s" "workload";
  List.iter (fun j -> Printf.printf " %10s" (Printf.sprintf "j=%d (ms)" j)) scaling_jobs;
  Printf.printf " %10s %7s\n" "speedup@4" "eff@4";
  Printf.printf "%s\n" (String.make (22 + 11 * List.length scaling_jobs + 19) '-');
  let row name f =
    let times =
      List.map
        (fun j -> (j, time_median (fun () -> Conc.Pool.with_jobs j f)))
        scaling_jobs
    in
    let t1 = List.assoc 1 times in
    Printf.printf "%-22s" name;
    List.iter (fun (_, t) -> Printf.printf " %10.2f" (ms t)) times;
    (match List.assoc_opt 4 times with
     | Some t4 ->
       Printf.printf " %9.2fx %6.0f%%\n" (t1 /. t4) (100. *. t1 /. t4 /. 4.)
     | None -> print_newline ());
    (name, times)
  in
  let rows =
    List.map
      (fun (name, ast) ->
        row name (fun () -> ignore (Xomatiq.Engine.run warehouse ast)))
      asts
  in
  (* machine-readable trajectory for future PRs to diff against *)
  let json_times times fmt =
    "{"
    ^ String.concat ", " (List.map (fun (j, v) -> Printf.sprintf fmt j v) times)
    ^ "}"
  in
  let workload_json (name, times) =
    let t1 = List.assoc 1 times in
    let speedups = List.map (fun (j, t) -> (j, t1 /. t)) times in
    let efficiencies =
      List.map (fun (j, s) -> (j, s /. float_of_int j)) speedups
    in
    Printf.sprintf
      "    { \"name\": %S,\n\
      \      \"seconds\": %s,\n\
      \      \"speedup\": %s,\n\
      \      \"efficiency\": %s }"
      name
      (json_times times "\"%d\": %.6f")
      (json_times speedups "\"%d\": %.3f")
      (json_times efficiencies "\"%d\": %.3f")
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"E6-scaling\",\n\
      \  \"generated_by\": \"bench/main.ml\",\n\
      \  \"scale\": %d,\n\
      \  \"host_cores\": %d,\n\
      \  \"par_threshold\": %s,\n\
      \  \"jobs\": [%s],\n\
      \  \"workloads\": [\n%s\n  ]\n}\n"
      scale
      (Domain.recommended_domain_count ())
      (match Sys.getenv_opt "XOMATIQ_PAR_THRESHOLD" with
       | Some s when int_of_string_opt (String.trim s) <> None -> String.trim s
       | _ -> "2000")
      (String.concat ", " (List.map string_of_int scaling_jobs))
      (String.concat ",\n" (List.map workload_json rows))
  in
  let path =
    match Sys.getenv_opt "XOMATIQ_BENCH_JSON" with
    | Some p when String.trim p <> "" -> p
    | _ -> "BENCH_E6.json"
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* E9: the bioinformatics task mix (paper citation [38], Section 3.2 claim) *)
let print_e9 () =
  print_newline ();
  Printf.printf
    "E9: bioinformatics task mix (Stevens et al. classes; %d docs/source)\n" scale;
  Printf.printf "%-20s %8s %14s %14s\n" "task class" "queries" "ad-hoc (ms)"
    "prepared (ms)";
  Printf.printf "%s\n" (String.make 60 '-');
  let u =
    Workload.Genbio.generate
      { Workload.Genbio.seed = 42; n_enzymes = scale; n_embl = scale;
        n_sprot = scale; n_citations = scale; cdc6_rate = 0.03;
        ketone_rate = 0.08; ec_link_rate = 0.5; seq_length = 120 }
  in
  let wh = Datahounds.Warehouse.create () in
  (match Workload.Genbio.load_universe wh u with
   | Ok () -> ()
   | Error m -> failwith m);
  List.iter
    (fun cls ->
      let texts = Workload.Query_mix.generate ~seed:7 ~universe:u ~count:10 cls in
      let asts = List.map Xomatiq.Parser.parse texts in
      let prepared = List.map (Xomatiq.Engine.prepare wh) asts in
      let adhoc =
        time_median (fun () ->
            List.iter (fun ast -> ignore (Xomatiq.Engine.run wh ast)) asts)
      in
      let prep =
        time_median (fun () ->
            List.iter (fun p -> ignore (Xomatiq.Engine.run_prepared p)) prepared)
      in
      Printf.printf "%-20s %8d %14.2f %14.2f\n"
        (Workload.Query_mix.class_name cls)
        (List.length asts)
        (ms adhoc /. float_of_int (List.length asts))
        (ms prep /. float_of_int (List.length asts)))
    Workload.Query_mix.all_classes;
  Datahounds.Warehouse.close wh

(* ------------------------------------------------------------------ *)
(* E8-throughput: the gRNA service layer under concurrent load         *)
(* ------------------------------------------------------------------ *)

(* Closed-loop multi-client benchmark against an in-process TCP server:
   each client thread connects, then fires the Fig. 8/9/11 query mix
   back to back for a fixed wall-clock window, recording per-request
   latency. Sweeping client count x worker domains shows where the
   service scales (pool-parallel execution) and where it serializes
   (jobs=1: every session executes inline under the runtime lock). *)

let e8t_duration =
  match Sys.getenv_opt "XOMATIQ_BENCH_E8_SECS" with
  | Some s -> (try float_of_string s with Failure _ -> 2.0)
  | None -> if Sys.getenv_opt "XOMATIQ_BENCH_SMOKE" <> None then 0.5 else 2.0

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

let e8t_cell port ~clients =
  let texts = Array.of_list (List.map snd queries) in
  let latencies = Array.make clients [] in
  let counts = Array.make clients 0 in
  let failures = Array.make clients None in
  let stop_at = ref infinity in
  let barrier = Atomic.make 0 in
  let worker i () =
    try
      let c = Xserver.Client.connect ~retry_for_s:5. ~timeout_s:60. ~port () in
      Fun.protect ~finally:(fun () -> Xserver.Client.close c) @@ fun () ->
      (* warm up: plan-cache misses and connection setup stay out of the
         measured window *)
      Array.iter (fun q -> ignore (Xserver.Client.query c q)) texts;
      Atomic.incr barrier;
      while Atomic.get barrier < clients do Thread.yield () done;
      let rec pump k =
        if Unix.gettimeofday () < !stop_at then begin
          let text = texts.(k mod Array.length texts) in
          let t0 = Unix.gettimeofday () in
          ignore (Xserver.Client.query c text);
          latencies.(i) <- (Unix.gettimeofday () -. t0) :: latencies.(i);
          counts.(i) <- counts.(i) + 1;
          pump (k + 1)
        end
      in
      pump i
    with e -> failures.(i) <- Some (Printexc.to_string e)
  in
  (* the window opens once every client is connected and warm *)
  let opener =
    Thread.create
      (fun () ->
        while Atomic.get barrier < clients do Thread.yield () done;
        stop_at := Unix.gettimeofday () +. e8t_duration)
      ()
  in
  let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  Thread.join opener;
  Array.iter
    (function
      | Some m -> failwith ("E8-throughput client failed: " ^ m)
      | None -> ())
    failures;
  let samples =
    Array.of_list (List.concat (Array.to_list latencies))
  in
  Array.sort compare samples;
  let requests = Array.fold_left ( + ) 0 counts in
  let qps = float_of_int requests /. e8t_duration in
  (requests, qps, percentile samples 0.50, percentile samples 0.95,
   percentile samples 0.99)

let proc_status_int field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let flen = String.length field in
    let rec go () =
      match input_line ic with
      | line ->
        if String.length line > flen && String.sub line 0 flen = field then
          let digits =
            String.fold_left
              (fun acc ch ->
                if ch >= '0' && ch <= '9' then acc ^ String.make 1 ch else acc)
              "" line
          in
          int_of_string_opt digits |> Option.value ~default:0
        else go ()
      | exception End_of_file -> 0
    in
    let v = go () in
    close_in ic;
    v

(* Idle-connections axis: park N handshaken-but-silent connections, then
   run the closed-loop single-client cell. Under the reactor an idle
   connection is a pollfd entry plus ~12 KiB of buffers — the floors
   below assert the active client keeps >= 0.9x of its 0-idle QPS and
   that the thread count does not scale with the herd. *)
let e8t_idle_cells () =
  let smoke = Sys.getenv_opt "XOMATIQ_BENCH_SMOKE" <> None in
  let idle_levels = if smoke then [ 0; 100 ] else [ 0; 100; 1000 ] in
  ignore (Conc.Reactor.raise_fd_limit 8192);
  Printf.printf
    "\nE8-idle: 1 active closed-loop client among parked idle connections \
     (jobs=1)\n";
  Printf.printf "%-8s %9s %9s %10s %10s %9s\n" "idle" "requests" "QPS"
    "p50 (ms)" "p95 (ms)" "threads+";
  Printf.printf "%s\n" (String.make 60 '-');
  let cells =
    List.map
      (fun idle ->
        let cfg =
          { Xserver.Server.default_config with
            host = "127.0.0.1"; port = 0; max_clients = idle + 8 }
        in
        let server = Xserver.Server.start cfg warehouse in
        let port = Xserver.Server.port server in
        let threads_before = proc_status_int "Threads:" in
        let conns =
          Array.init idle (fun _ ->
              Xserver.Client.connect ~retry_for_s:5. ~port ())
        in
        let thread_delta = proc_status_int "Threads:" - threads_before in
        (* Smoke cells are 0.5 s: on a noisy shared host two single-shot
           windows can differ by 10-15% from CPU interference alone,
           which flakes the 0.9x floor below. Interference is one-sided
           (it only slows a cell down), so best-of-2 is the right
           estimator for a floor check at smoke scale. *)
        let attempts = if smoke then 2 else 1 in
        let measure () = e8t_cell port ~clients:1 in
        let best = ref (measure ()) in
        for _ = 2 to attempts do
          let (_, q, _, _, _) as m = measure () in
          let _, best_q, _, _, _ = !best in
          if q > best_q then best := m
        done;
        let requests, qps, p50, p95, _ = !best in
        Array.iter (fun c -> try Xserver.Client.close c with _ -> ()) conns;
        Xserver.Server.request_stop server;
        Xserver.Server.wait server;
        Printf.printf "%-8d %9d %9.1f %10.3f %10.3f %9d\n%!" idle requests qps
          (ms p50) (ms p95) thread_delta;
        (idle, requests, qps, p50, p95, thread_delta))
      idle_levels
  in
  (match cells with
   | (_, _, base_qps, _, _, _) :: rest ->
     List.iter
       (fun (idle, _, qps, _, _, thread_delta) ->
         if qps < 0.9 *. base_qps then
           failwith
             (Printf.sprintf
                "E8-idle regression: %d idle connections drop the active \
                 client to %.1f QPS, below 0.9x of the 0-idle baseline \
                 (%.1f QPS)"
                idle qps base_qps);
         if thread_delta > 2 then
           failwith
             (Printf.sprintf
                "E8-idle regression: %d idle connections grew the thread \
                 count by %d — idle cost must not scale with connections"
                idle thread_delta))
       rest
   | [] -> ());
  cells

(* Pipeline-window axis: one client streams a cheap request mix with
   xomatiq/1 pipelining at W in {1, 8, 32}. What pipelining removes is
   per-request wire overhead — syscalls, wakeups, client/server context
   switches — so the mix here is protocol-bound by construction: trivial
   SQL probes whose execution is a few microseconds. (The Fig. 8/9/11
   FLWR queries spend 50-160 us in the engine per request, which caps
   even a perfect pipeline below 1.4x and says nothing about the wire;
   the jobs x clients table already covers them.) W=8 must clear 1.3x of
   the W=1 QPS. *)
let e8t_pipeline_cells () =
  let windows = [ 1; 8; 32 ] in
  let cheap =
    [| "SELECT 1"; "SELECT path FROM xml_path LIMIT 1" |]
  in
  let batch =
    List.init 64 (fun i -> cheap.(i mod Array.length cheap))
  in
  Printf.printf
    "\nE8-pipeline: xomatiq/1 pipelining, protocol-bound SQL mix, 1 client \
     (jobs=1)\n";
  Printf.printf "%-8s %9s %9s\n" "window" "requests" "QPS";
  Printf.printf "%s\n" (String.make 30 '-');
  let cfg =
    { Xserver.Server.default_config with host = "127.0.0.1"; port = 0 }
  in
  let server = Xserver.Server.start cfg warehouse in
  let port = Xserver.Server.port server in
  let cells =
    List.map
      (fun window ->
        let c =
          Xserver.Client.connect ~retry_for_s:5. ~timeout_s:60. ~port ()
        in
        Fun.protect ~finally:(fun () -> Xserver.Client.close c) @@ fun () ->
        let run_batch () =
          List.iter
            (function
              | Ok _ -> ()
              | Error (code, m) ->
                failwith
                  (Printf.sprintf "E8-pipeline query failed: [%s] %s" code m))
            (Xserver.Client.query_pipelined ~sql:true ~window c batch)
        in
        run_batch ();  (* warm: plan cache, session, TCP *)
        let t0 = Unix.gettimeofday () in
        let stop_at = t0 +. e8t_duration in
        let requests = ref 0 in
        while Unix.gettimeofday () < stop_at do
          run_batch ();
          requests := !requests + List.length batch
        done;
        let qps = float_of_int !requests /. (Unix.gettimeofday () -. t0) in
        Printf.printf "%-8d %9d %9.1f\n%!" window !requests qps;
        (window, !requests, qps))
      windows
  in
  Xserver.Server.request_stop server;
  Xserver.Server.wait server;
  let qps_at w =
    List.find_map (fun (w', _, q) -> if w' = w then Some q else None) cells
  in
  (match (qps_at 1, qps_at 8) with
   | Some base, Some piped when piped < 1.3 *. base ->
     failwith
       (Printf.sprintf
          "E8-pipeline regression: W=8 runs at %.1f QPS, below 1.3x of the \
           W=1 baseline (%.1f QPS)"
          piped base)
   | _ -> ());
  cells

let print_e8_throughput () =
  let smoke = Sys.getenv_opt "XOMATIQ_BENCH_SMOKE" <> None in
  let client_counts = if smoke then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  (* smoke includes jobs=1 AND jobs=2 so CI can assert the adaptive
     scheduler keeps jobs=2 within 0.8x of the jobs=1 single-client QPS
     (the regression that motivated it: unconditional dispatch dropped
     jobs=2 single-client throughput by ~7x) *)
  let jobs_levels = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let saved_jobs = Conc.Pool.jobs () in
  print_newline ();
  Printf.printf
    "E8-throughput: concurrent TCP query service, closed-loop clients (%.1fs per cell)\n"
    e8t_duration;
  warn_if_single_core "E8-throughput";
  Printf.printf "%-6s %-8s %9s %9s %10s %10s %10s\n" "jobs" "clients"
    "requests" "QPS" "p50 (ms)" "p95 (ms)" "p99 (ms)";
  Printf.printf "%s\n" (String.make 68 '-');
  let cfg = { Xserver.Server.default_config with host = "127.0.0.1"; port = 0 } in
  let cells =
    List.concat_map
      (fun jobs ->
        Conc.Pool.set_jobs jobs;
        let server = Xserver.Server.start cfg warehouse in
        let port = Xserver.Server.port server in
        let rows =
          List.map
            (fun clients ->
              let requests, qps, p50, p95, p99 = e8t_cell port ~clients in
              Printf.printf "%-6d %-8d %9d %9.1f %10.3f %10.3f %10.3f\n%!"
                jobs clients requests qps (ms p50) (ms p95) (ms p99);
              (jobs, clients, requests, qps, p50, p95, p99))
            client_counts
        in
        Xserver.Server.request_stop server;
        Xserver.Server.wait server;
        rows)
      jobs_levels
  in
  Conc.Pool.set_jobs saved_jobs;
  (* The E8 acceptance bar: granting workers must never cost a lone
     client its throughput. Any jobs>1 cell must stay within 0.8x of the
     jobs=1 QPS at the same client count. *)
  let qps_at jobs clients =
    List.find_map
      (fun (j, c, _, qps, _, _, _) ->
        if j = jobs && c = clients then Some qps else None)
      cells
  in
  List.iter
    (fun (jobs, clients, _, qps, _, _, _) ->
      if jobs > 1 then
        match qps_at 1 clients with
        | Some base when qps < 0.8 *. base ->
          failwith
            (Printf.sprintf
               "E8-throughput regression: jobs=%d clients=%d runs at %.1f \
                QPS, below 0.8x of the jobs=1 baseline (%.1f QPS)"
               jobs clients qps base)
        | _ -> ())
    cells;
  (* the reactor-era axes: parked connections and pipelining *)
  Conc.Pool.set_jobs 1;
  let idle_cells = e8t_idle_cells () in
  let pipeline_cells = e8t_pipeline_cells () in
  Conc.Pool.set_jobs saved_jobs;
  let cell_json (jobs, clients, requests, qps, p50, p95, p99) =
    Printf.sprintf
      "    { \"jobs\": %d, \"clients\": %d, \"requests\": %d, \"qps\": %.2f, \
       \"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f }"
      jobs clients requests qps (ms p50) (ms p95) (ms p99)
  in
  let idle_cell_json (idle, requests, qps, p50, p95, thread_delta) =
    Printf.sprintf
      "    { \"idle_connections\": %d, \"requests\": %d, \"qps\": %.2f, \
       \"p50_ms\": %.4f, \"p95_ms\": %.4f, \"thread_delta\": %d }"
      idle requests qps (ms p50) (ms p95) thread_delta
  in
  let pipeline_cell_json (window, requests, qps) =
    Printf.sprintf
      "    { \"window\": %d, \"requests\": %d, \"qps\": %.2f }" window
      requests qps
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"E8-throughput\",\n\
      \  \"generated_by\": \"bench/main.ml\",\n\
      \  \"scale\": %d,\n\
      \  \"host_cores\": %d,\n\
      \  \"duration_seconds\": %.2f,\n\
      \  \"workload\": [%s],\n\
      \  \"pipeline_workload\": [\"SELECT 1\", \"SELECT path FROM xml_path \
       LIMIT 1\"],\n\
      \  \"cells\": [\n%s\n  ],\n\
      \  \"idle_cells\": [\n%s\n  ],\n\
      \  \"pipeline_cells\": [\n%s\n  ]\n}\n"
      scale
      (Domain.recommended_domain_count ())
      e8t_duration
      (String.concat ", "
         (List.map (fun (n, _) -> Printf.sprintf "%S" n) queries))
      (String.concat ",\n" (List.map cell_json cells))
      (String.concat ",\n" (List.map idle_cell_json idle_cells))
      (String.concat ",\n" (List.map pipeline_cell_json pipeline_cells))
  in
  let path =
    match Sys.getenv_opt "XOMATIQ_BENCH_E8_JSON" with
    | Some p when String.trim p <> "" -> p
    | _ -> "BENCH_E8.json"
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* E10-outofcore: the paged storage backend                            *)
(* ------------------------------------------------------------------ *)

(* Three claims about the out-of-core backend (DESIGN.md, "Out-of-core
   paged storage"):

   1. spool-then-load harvest beats per-document installs into the same
      disk backend — one WAL record and bottom-up index builds per table
      vs per-row logging and incremental B+tree maintenance;
   2. a warehouse many times the buffer-pool budget still harvests and
      answers the Fig. 8/9/11 mix, with memory bounded by the pool
      (a non-zero eviction count proves frames were recycled mid-query);
   3. when the pool does fit the data, the disk backend's query latency
      stays close to the in-memory backend's on the same mix. *)

let with_pool_pages n f =
  let saved = Sys.getenv_opt "XOMATIQ_POOL_PAGES" in
  Unix.putenv "XOMATIQ_POOL_PAGES" (string_of_int n);
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "XOMATIQ_POOL_PAGES" (Option.value saved ~default:""))
    f

let with_fresh_dir f =
  let dir = Filename.temp_file "xomatiq_e10" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then
        ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(* bytes of heap pages and index pages under a storage directory *)
let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc name -> acc + dir_bytes (Filename.concat path name))
      0 (Sys.readdir path)
  | _ -> 0
  | exception Unix.Unix_error _ -> 0

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let print_e10_outofcore () =
  Printf.printf "\nE10-outofcore: paged storage backend (scale=%d)\n" scale;
  let flat = enzyme_flat in
  let src = Datahounds.Warehouse.enzyme_source in
  (* -------- load: spool-then-bulk-load vs per-document installs ---- *)
  (* Same parse + validate work on both sides; what differs is the
     install: harvest spools rows and bulk-appends pages under one Load
     record per table, load_document inserts row by row. The bulk side's
     install time is the harvest wall clock minus its reported
     transform/validate stages. *)
  let bulk_install_s =
    with_fresh_dir @@ fun dir ->
    let wh = Datahounds.Warehouse.create ~data_dir:dir () in
    Fun.protect ~finally:(fun () -> Datahounds.Warehouse.close wh)
    @@ fun () ->
    Datahounds.Warehouse.register_source wh src;
    let t0 = Unix.gettimeofday () in
    match Datahounds.Warehouse.harvest_stats ~analyze:false wh src flat with
    | Error m -> failwith ("E10 bulk harvest: " ^ m)
    | Ok st ->
      Unix.gettimeofday () -. t0
      -. st.Datahounds.Warehouse.transform_s
      -. st.Datahounds.Warehouse.validate_s
  in
  let perrow_install_s, docs =
    with_fresh_dir @@ fun dir ->
    let wh = Datahounds.Warehouse.create ~data_dir:dir () in
    Fun.protect ~finally:(fun () -> Datahounds.Warehouse.close wh)
    @@ fun () ->
    Datahounds.Warehouse.register_source wh src;
    let parsed = src.Datahounds.Warehouse.transform flat in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (name, doc) ->
        match
          Datahounds.Warehouse.load_document ~validate:false wh
            ~collection:src.Datahounds.Warehouse.source_collection ~name doc
        with
        | Ok () -> ()
        | Error m -> failwith ("E10 per-row load: " ^ m))
      parsed;
    (Unix.gettimeofday () -. t0, List.length parsed)
  in
  Printf.printf
    "  load (%d docs, disk): bulk %.1f ms, per-row %.1f ms  (%.2fx)\n" docs
    (bulk_install_s *. 1000.) (perrow_install_s *. 1000.)
    (perrow_install_s /. bulk_install_s);
  (* -------- out-of-core: warehouse >> pool, bounded memory --------- *)
  let tiny_pool_pages = 64 in (* 512 KiB of frames *)
  let hwm_before_kb = proc_status_int "VmHWM" in
  let ooc_harvest_s, ooc_mix, ooc_data_bytes, ooc_evictions =
    with_pool_pages tiny_pool_pages @@ fun () ->
    with_fresh_dir @@ fun dir ->
    let wh = Datahounds.Warehouse.create ~data_dir:dir () in
    Fun.protect ~finally:(fun () -> Datahounds.Warehouse.close wh)
    @@ fun () ->
    let t0 = Unix.gettimeofday () in
    (match Workload.Genbio.load_universe wh universe with
     | Ok () -> ()
     | Error m -> failwith ("E10 out-of-core harvest: " ^ m));
    let harvest_s = Unix.gettimeofday () -. t0 in
    let ev0 = Rdb.Bufpool.pool_evictions () in
    let mix =
      List.map
        (fun (name, ast) ->
          let samples =
            List.init 5 (fun _ ->
                let t0 = Unix.gettimeofday () in
                ignore (Xomatiq.Engine.run wh ast);
                Unix.gettimeofday () -. t0)
          in
          (name, median samples))
        asts
    in
    (harvest_s, mix, dir_bytes dir, Rdb.Bufpool.pool_evictions () - ev0)
  in
  let hwm_after_kb = proc_status_int "VmHWM" in
  let pool_bytes = tiny_pool_pages * Rdb.Bufpool.page_size in
  Printf.printf
    "  out-of-core: %.1f MiB of pages through a %d KiB pool (%.1fx), \
     harvest %.0f ms, %d evictions during the mix\n"
    (float_of_int ooc_data_bytes /. 1048576.)
    (pool_bytes / 1024)
    (float_of_int ooc_data_bytes /. float_of_int pool_bytes)
    (ooc_harvest_s *. 1000.) ooc_evictions;
  List.iter
    (fun (name, s) -> Printf.printf "    %-22s %8.2f ms\n" name (s *. 1000.))
    ooc_mix;
  Printf.printf "  VmHWM %d -> %d KiB across the out-of-core phase\n"
    hwm_before_kb hwm_after_kb;
  (* -------- pool fits: disk latency vs the in-memory backend ------- *)
  let run_mix wh =
    List.map
      (fun (name, ast) ->
        ignore (Xomatiq.Engine.run wh ast); (* warm plans and pool *)
        let samples =
          List.init 7 (fun _ ->
              Gc.full_major ();
              let t0 = Unix.gettimeofday () in
              ignore (Xomatiq.Engine.run wh ast);
              Unix.gettimeofday () -. t0)
        in
        (name, median samples))
      asts
  in
  let mem_mix = run_mix warehouse in
  let disk_mix =
    with_fresh_dir @@ fun dir ->
    let wh = Datahounds.Warehouse.create ~data_dir:dir () in
    Fun.protect ~finally:(fun () -> Datahounds.Warehouse.close wh)
    @@ fun () ->
    (match Workload.Genbio.load_universe wh universe with
     | Ok () -> ()
     | Error m -> failwith ("E10 pool-fits harvest: " ^ m));
    run_mix wh
  in
  Printf.printf "  pool fits (default %d-page pool): disk vs mem\n" 2048;
  let fits =
    List.map
      (fun (name, mem_s) ->
        let disk_s = List.assoc name disk_mix in
        Printf.printf "    %-22s mem %8.2f ms  disk %8.2f ms  (%.2fx)\n"
          name (mem_s *. 1000.) (disk_s *. 1000.) (mem_s /. disk_s);
        (name, mem_s, disk_s))
      mem_mix
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"E10-outofcore\",\n\
      \  \"generated_by\": \"bench/main.ml\",\n\
      \  \"scale\": %d,\n\
      \  \"host_cores\": %d,\n\
      \  \"page_size\": %d,\n\
      \  \"load\": {\n\
      \    \"documents\": %d,\n\
      \    \"bulk_install_seconds\": %.6f,\n\
      \    \"per_row_install_seconds\": %.6f,\n\
      \    \"speedup\": %.3f\n\
      \  },\n\
      \  \"out_of_core\": {\n\
      \    \"pool_pages\": %d,\n\
      \    \"data_bytes\": %d,\n\
      \    \"data_over_pool\": %.2f,\n\
      \    \"harvest_seconds\": %.6f,\n\
      \    \"evictions_during_mix\": %d,\n\
      \    \"vm_hwm_before_kb\": %d,\n\
      \    \"vm_hwm_after_kb\": %d,\n\
      \    \"mix\": {%s}\n\
      \  },\n\
      \  \"pool_fits\": [\n%s\n  ]\n}\n"
      scale
      (Domain.recommended_domain_count ())
      Rdb.Bufpool.page_size docs bulk_install_s perrow_install_s
      (perrow_install_s /. bulk_install_s)
      tiny_pool_pages ooc_data_bytes
      (float_of_int ooc_data_bytes /. float_of_int pool_bytes)
      ooc_harvest_s ooc_evictions hwm_before_kb hwm_after_kb
      (String.concat ", "
         (List.map
            (fun (n, s) -> Printf.sprintf "%S: %.6f" n s)
            ooc_mix))
      (String.concat ",\n"
         (List.map
            (fun (n, mem_s, disk_s) ->
              Printf.sprintf
                "    { \"name\": %S, \"mem_seconds\": %.6f, \
                 \"disk_seconds\": %.6f, \"mem_over_disk\": %.3f }"
                n mem_s disk_s (mem_s /. disk_s))
            fits))
  in
  let path =
    match Sys.getenv_opt "XOMATIQ_BENCH_E10_JSON" with
    | Some p when String.trim p <> "" -> p
    | _ -> "BENCH_E10.json"
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* E11-replication: WAL-shipped read replicas                          *)
(* ------------------------------------------------------------------ *)

(* Three claims about the replication subsystem (lib/replication):

     read scale-out  routing reads through two replicas must beat the
                     primary-only closed-loop read QPS by >= 1.5x. Each
                     serve is its own OS process: OCaml 5 systhreads
                     share one domain's runtime lock, so in-process
                     "replicas" cannot add read capacity — the bench
                     spawns the CLI binary (XOMATIQ_BIN overrides the
                     default dune path).
     bounded lag     a replica streaming behind a sustained write load
                     catches up to the primary's final position within
                     seconds of the writes stopping.
     flat WAL        periodic checkpoints truncate the replica-acked
                     prefix, so insert/delete churn cycles do not grow
                     the primary's on-disk WAL without bound. *)

let e11_duration =
  match Sys.getenv_opt "XOMATIQ_BENCH_E11_SECS" with
  | Some s -> (try float_of_string s with Failure _ -> 2.0)
  | None -> if Sys.getenv_opt "XOMATIQ_BENCH_SMOKE" <> None then 0.6 else 2.0

(* pull ["field": N] out of a METRICS JSON payload — the server renders
   integers with at most spaces after the colon (same trick the routed
   client uses for its read-your-writes probes) *)
let e11_json_int payload field =
  let needle = Printf.sprintf "\"%s\":" field in
  let plen = String.length payload and nlen = String.length needle in
  let rec find i =
    if i + nlen > plen then None
    else if String.sub payload i nlen = needle then begin
      let j = ref (i + nlen) in
      while !j < plen && payload.[!j] = ' ' do incr j done;
      let k = ref !j in
      while
        !k < plen
        && (match payload.[!k] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr k
      done;
      if !k > !j then int_of_string_opt (String.sub payload !j (!k - !j))
      else None
    end
    else find (i + 1)
  in
  find 0

let e11_spawn ~log bin args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.create_process bin (Array.of_list (bin :: args)) Unix.stdin fd fd

let e11_stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Thread.delay 0.05;
        reap ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

let print_e11_replication () =
  print_newline ();
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "E11-replication: WAL-shipped read replicas across serve processes \
     (scale=%d, host cores=%d, %.1fs per read cell)\n"
    scale cores e11_duration;
  warn_if_single_core "E11-replication";
  let bin =
    match Sys.getenv_opt "XOMATIQ_BIN" with
    | Some p when String.trim p <> "" -> p
    | _ -> "./_build/default/bin/xomatiq_cli.exe"
  in
  if not (Sys.file_exists bin) then
    failwith
      (Printf.sprintf
         "E11-replication: CLI binary %s not built — run 'dune build bin' \
          first or point XOMATIQ_BIN at it"
         bin);
  with_fresh_dir @@ fun dir ->
  let path name = Filename.concat dir name in
  let primary_wal = path "primary.wal" in
  (* serve prints no bound port, so pick a pid-derived block of fixed
     ports to keep concurrent bench runs off each other's toes *)
  let base = 18200 + (4 * (Unix.getpid () mod 2000)) in
  let p_port = base and p_repl = base + 1 in
  let r_ports = [ base + 2; base + 3 ] in
  let serve_common =
    [ "serve"; "--host"; "127.0.0.1"; "--max-clients"; "64";
      "--queue-depth"; "32" ]
  in
  let pids = ref [] in
  let spawn ~log args =
    let pid = e11_spawn ~log bin args in
    pids := pid :: !pids;
    pid
  in
  Fun.protect ~finally:(fun () -> List.iter e11_stop !pids) @@ fun () ->
  ignore
    (spawn ~log:(path "primary.log")
       (serve_common
        @ [ "--db"; primary_wal; "--storage"; "disk";
            "--data-dir"; path "primary.pages";
            "--port"; string_of_int p_port;
            "--repl-port"; string_of_int p_repl;
            "--checkpoint-every"; "0.5" ]));
  let pc = Xserver.Client.connect ~retry_for_s:20. ~port:p_port () in
  ignore
    (Xserver.Client.sql pc
       "CREATE TABLE e11 (id INTEGER PRIMARY KEY, grp INTEGER NOT NULL, \
        val INTEGER NOT NULL)");
  List.iteri
    (fun i port ->
      ignore
        (spawn ~log:(path (Printf.sprintf "replica%d.log" i))
           (serve_common
            @ [ "--db"; path (Printf.sprintf "replica%d.wal" i);
                "--port"; string_of_int port;
                "--replicate-from"; Printf.sprintf "127.0.0.1:%d" p_repl ])))
    r_ports;
  let rcs =
    List.map (fun port -> Xserver.Client.connect ~retry_for_s:20. ~port ()) r_ports
  in
  let primary_pos () =
    Option.value ~default:0 (e11_json_int (Xserver.Client.metrics pc) "position")
  in
  let applied c =
    Option.value ~default:(-1) (e11_json_int (Xserver.Client.metrics c) "applied")
  in
  let wait_caught_up ~timeout_s what =
    let target = primary_pos () in
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec go () =
      if List.for_all (fun c -> applied c >= target) rcs then ()
      else if Unix.gettimeofday () > deadline then
        failwith
          (Printf.sprintf
             "E11-replication: replicas still behind position %d after \
              %.0fs (%s); see %s/replica*.log"
             target timeout_s what dir)
      else begin
        Thread.delay 0.05;
        go ()
      end
    in
    go ()
  in
  (* -------- seed through the wire, replicas backfill from pos 0 ---- *)
  let rows = max 200 (min (scale * 10) 2000) in
  let insert id grp v =
    Printf.sprintf "INSERT INTO e11 (id, grp, val) VALUES (%d, %d, %d)" id grp v
  in
  List.iter
    (function
      | Ok _ -> ()
      | Error (code, m) ->
        failwith (Printf.sprintf "E11 seed failed: [%s] %s" code m))
    (Xserver.Client.query_pipelined ~sql:true ~window:32 pc
       (List.init rows (fun i -> insert i (i mod 97) (i * 7 mod 1000))));
  wait_caught_up ~timeout_s:30. "initial backfill";
  (* -------- read scale-out: primary-only vs routed to 2 replicas --- *)
  let read_query = "SELECT SUM(val) FROM e11 WHERE grp < 40" in
  let expected_body = fst (Xserver.Client.sql pc read_query) in
  let clients = 4 in
  let mismatch = Atomic.make None in
  let read_phase ~replicas =
    let counts = Array.make clients 0 in
    let via_replicas = ref 0 in
    let mu = Mutex.create () in
    let threads =
      Array.init clients (fun i ->
          Thread.create
            (fun () ->
              let r =
                Xserver.Client.Routed.connect ~retry_for_s:10. ~replicas
                  ~port:p_port ()
              in
              Fun.protect
                ~finally:(fun () -> Xserver.Client.Routed.close r)
              @@ fun () ->
              let stop_at = Unix.gettimeofday () +. e11_duration in
              let n = ref 0 in
              while Unix.gettimeofday () < stop_at do
                let body, _ = Xserver.Client.Routed.sql r read_query in
                if body <> expected_body then
                  Atomic.set mismatch (Some (expected_body, body));
                incr n
              done;
              counts.(i) <- !n;
              Mutex.lock mu;
              via_replicas := !via_replicas + Xserver.Client.Routed.replica_reads r;
              Mutex.unlock mu)
            ())
    in
    Array.iter Thread.join threads;
    let total = Array.fold_left ( + ) 0 counts in
    (float_of_int total /. e11_duration, total, !via_replicas)
  in
  let qps_primary, req_primary, _ = read_phase ~replicas:[] in
  let qps_repl, req_repl, via_replicas =
    read_phase
      ~replicas:(List.map (fun port -> ("127.0.0.1", port)) r_ports)
  in
  (match Atomic.get mismatch with
   | Some (want, got) ->
     failwith
       (Printf.sprintf
          "E11-replication: replica read diverged from the primary: \
           expected %S, got %S"
          want got)
   | None -> ());
  if via_replicas = 0 then
    failwith
      "E11-replication: routed phase never read from a replica — routing \
       is broken or the replicas never reported caught-up";
  let scaleout = qps_repl /. qps_primary in
  Printf.printf
    "  reads: primary-only %9.1f QPS (%d reqs)   2 replicas %9.1f QPS \
     (%d reqs, %d via replicas)   scale-out %.2fx\n%!"
    qps_primary req_primary qps_repl req_repl via_replicas scaleout;
  (* the floor needs a core each for the client and the two replica
     processes; below that the cells time-slice one another and the
     ratio measures the scheduler, not the subsystem *)
  let floor_enforced = cores >= 4 in
  if floor_enforced && scaleout < 1.5 then
    failwith
      (Printf.sprintf
         "E11-replication regression: 2 replicas reach only %.2fx of the \
          primary-only read QPS (%.1f vs %.1f), below the 1.5x floor"
         scaleout qps_repl qps_primary);
  if not floor_enforced then
    Printf.printf
      "  (1.5x scale-out floor not enforced: %d host core(s) < 4)\n%!" cores;
  (* -------- bounded lag under a sustained write stream ------------- *)
  let writes = if e11_duration < 1.0 then 300 else 800 in
  let max_lag = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to writes - 1 do
    ignore (Xserver.Client.sql pc (insert (100_000 + i) (i mod 97) 1));
    if i mod 50 = 49 then begin
      let lag = primary_pos () - applied (List.hd rcs) in
      if lag > !max_lag then max_lag := lag
    end
  done;
  let write_s = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  wait_caught_up ~timeout_s:20. "catch-up after sustained writes";
  let catchup_s = Unix.gettimeofday () -. t0 in
  Printf.printf
    "  lag: %d writes in %.2fs, max observed lag %d records, caught up \
     %.2fs after the stream stopped\n%!"
    writes write_s !max_lag catchup_s;
  (* -------- flat WAL across churn cycles --------------------------- *)
  let wal_size () = (Unix.stat primary_wal).Unix.st_size in
  (* a cycle's records are truncatable once both replicas acked them;
     stable-for-1.5s covers three 0.5s checkpoint periods, so a size
     that stops moving really is the post-truncation floor *)
  let stabilized_wal_size () =
    let deadline = Unix.gettimeofday () +. 15. in
    let rec go last same_for =
      Thread.delay 0.25;
      let s = wal_size () in
      if Unix.gettimeofday () > deadline then s
      else if s <> last then go s 0.
      else if same_for >= 1.5 then s
      else go s (same_for +. 0.25)
    in
    go (wal_size ()) 0.
  in
  let churn_rows = 300 in
  let cycles = 4 in
  let wal_sizes =
    List.init cycles (fun cycle ->
        List.iter
          (function
            | Ok _ -> ()
            | Error (code, m) ->
              failwith (Printf.sprintf "E11 churn failed: [%s] %s" code m))
          (Xserver.Client.query_pipelined ~sql:true ~window:32 pc
             (List.init churn_rows (fun i ->
                  insert (200_000 + i) (i mod 97) cycle)));
        ignore (Xserver.Client.sql pc "DELETE FROM e11 WHERE id >= 200000");
        wait_caught_up ~timeout_s:20.
          (Printf.sprintf "churn cycle %d" (cycle + 1));
        let s = stabilized_wal_size () in
        Printf.printf "  churn cycle %d: WAL %d bytes after checkpoint\n%!"
          (cycle + 1) s;
        s)
  in
  let first_wal = List.hd wal_sizes in
  let last_wal = List.nth wal_sizes (cycles - 1) in
  if float_of_int last_wal > (1.5 *. float_of_int first_wal) +. 65536. then
    failwith
      (Printf.sprintf
         "E11-replication regression: WAL grew across churn cycles \
          (%d -> %d bytes) — checkpoints are not truncating the acked \
          prefix"
         first_wal last_wal);
  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"E11-replication\",\n\
      \  \"generated_by\": \"bench/main.ml\",\n\
      \  \"scale\": %d,\n\
      \  \"host_cores\": %d,\n\
      \  \"duration_seconds\": %.2f,\n\
      \  \"rows\": %d,\n\
      \  \"read_query\": %S,\n\
      \  \"reads\": {\n\
      \    \"clients\": %d,\n\
      \    \"primary_only_qps\": %.2f,\n\
      \    \"two_replica_qps\": %.2f,\n\
      \    \"replica_served_requests\": %d,\n\
      \    \"scaleout\": %.3f,\n\
      \    \"floor_enforced\": %b\n\
      \  },\n\
      \  \"lag\": {\n\
      \    \"writes\": %d,\n\
      \    \"write_seconds\": %.3f,\n\
      \    \"max_lag_records\": %d,\n\
      \    \"catchup_seconds\": %.3f\n\
      \  },\n\
      \  \"wal\": {\n\
      \    \"churn_rows_per_cycle\": %d,\n\
      \    \"cycle_bytes\": [%s]\n\
      \  }\n}\n"
      scale cores e11_duration rows read_query clients qps_primary qps_repl
      via_replicas scaleout floor_enforced writes write_s !max_lag catchup_s
      churn_rows
      (String.concat ", " (List.map string_of_int wal_sizes))
  in
  let out =
    match Sys.getenv_opt "XOMATIQ_BENCH_E11_JSON" with
    | Some p when String.trim p <> "" -> p
    | _ -> "BENCH_E11.json"
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" out

(* CI smoke mode: skip bechamel and the large sweeps, run the E5 family
   once at whatever (small) scale the environment sets. *)
let smoke = Sys.getenv_opt "XOMATIQ_BENCH_SMOKE" <> None

(* XOMATIQ_BENCH_ONLY=E10-outofcore (etc.) runs one experiment in
   isolation — refreshing one BENCH_*.json without the full suite. *)
let only = Sys.getenv_opt "XOMATIQ_BENCH_ONLY"

let () =
  match only with
  | Some name ->
    (match String.lowercase_ascii (String.trim name) with
     | "e6-scaling" -> print_e6_scaling ()
     | "e8-throughput" -> print_e8_throughput ()
     | "e9" -> print_e9 ()
     | "e10-outofcore" -> print_e10_outofcore ()
     | "e11-replication" -> print_e11_replication ()
     | other -> failwith ("unknown XOMATIQ_BENCH_ONLY experiment: " ^ other))
  | None ->
  if smoke then begin
    Printf.printf "XomatiQ bench smoke (scale=%d docs per source)\n" scale;
    print_e5 ();
    print_e5_analyze ();
    print_e5_cache ();
    (* exercise the parallel scan/join paths even at smoke scale *)
    print_e6_scaling ();
    print_e8_throughput ();
    print_e10_outofcore ();
    print_newline ();
    print_endline "Smoke OK."
  end
  else begin
    Printf.printf
      "XomatiQ benchmark suite (scale=%d docs per source; set XOMATIQ_BENCH_SCALE to change)\n\n"
      scale;
    let results = run_bechamel () in
    print_bechamel results;
    print_e4_sweep ();
    print_e5 ();
    print_e5_analyze ();
    print_e5_cache ();
    print_e6_sweep ();
    print_e6_scaling ();
    print_e7 ();
    print_e8 ();
    print_e8_throughput ();
    print_e9 ();
    print_e10_outofcore ();
    print_e11_replication ();
    print_newline ();
    print_endline "Done. See EXPERIMENTS.md for the experiment index and expected shapes."
  end
