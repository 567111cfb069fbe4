(* The traced run: per-layer metrics. It replays a workload's generated
   inputs in process with a span around every call the benchmark makes
   into a layer's public function, reads the program's counters at the
   same boundaries, and drives a [xomatiq serve] child for the
   wire-side split (client latency against the DONE trailer, METRICS
   snapshots around one window). Spans go to
   .perfbench/spans-<workload>-seed<N>.jsonl. *)

module W = Datahounds.Warehouse
module C = Xserver.Client
module E = Xomatiq.Engine
module Shred = Datahounds.Shred
open Workloads

type acc = {
  tr : Trace.t;
  plans : (string, int * string list * Rdb.Planner.planned option) Hashtbl.t;
  mutable plan_words : float;
  mutable exec_words : float;
  mutable examined : int;
  mutable results : int;
  mutable probes : int;
  mutable queries : int;
  mutable transformed : int;  (* documents out of [transform] *)
  mutable installed : int;    (* documents through the install spans *)
}

let new_acc () =
  { tr = Trace.create (); plans = Hashtbl.create 1024; plan_words = 0.;
    exec_words = 0.; examined = 0; results = 0; probes = 0; queries = 0;
    transformed = 0; installed = 0 }

let span a name f = Trace.span a.tr name f

let transform a (src : W.source) text =
  let docs = span a "datahounds.transform" (fun () -> src.transform text) in
  a.transformed <- a.transformed + List.length docs;
  docs

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let with_words f =
  let w0 = minor_words () in
  let v = f () in
  (v, minor_words () -. w0)

(* ---------------- the write path, call by call ---------------- *)

let analyze a db =
  List.iter
    (fun table ->
      span a "rdb.analyze" (fun () ->
          ignore (Rdb.Database.exec db ("ANALYZE " ^ table))))
    Shred.tables

(* [Warehouse.harvest] decomposed into its public steps: transform,
   validate, prepare, install (bulk on disk), ANALYZE. *)
let harvest a wh (src : W.source) text =
  W.register_source wh src;
  let db = W.db wh and collection = src.source_collection in
  let dtd = W.dtd_of wh ~collection in
  let sequence_elements = W.sequence_elements_of wh ~collection in
  let docs = transform a src text in
  let preps =
    List.map
      (fun (name, (doc : Gxml.Tree.document)) ->
        Option.iter
          (fun dtd ->
            if span a "gxml.validate" (fun () -> Gxml.Dtd.validate dtd doc.root) <> []
            then failwith ("invalid document " ^ name))
          dtd;
        ( name,
          span a "datahounds.prepare" (fun () ->
              Shred.prepare ~sequence_elements ~collection ~name doc) ))
      docs
  in
  let ok = function Ok _ -> () | Error m -> failwith m in
  if Rdb.Database.is_disk db then
    span a "datahounds.install" (fun () ->
        ok (Shred.install_prepared_bulk db (List.map snd preps)))
  else
    List.iter
      (fun (name, prep) ->
        span a "datahounds.install" (fun () ->
            ignore (Shred.delete_document db ~collection ~name);
            ok (Shred.install_prepared db prep)))
      preps;
  analyze a db;
  a.installed <- a.installed + List.length docs;
  List.length docs

(* [Warehouse.harvest] call for call: the harvest, then its ANALYZE of
   every table. *)
let harvest_public a wh (src : W.source) text =
  let docs =
    span a "datahounds.harvest" (fun () -> W.harvest ~analyze:false wh src text)
  in
  analyze a (W.db wh);
  docs

(* [Sync.sync_source] call for call: transform, then sync. *)
let sync a wh (src : W.source) text =
  let docs = transform a src text in
  span a "datahounds.sync" (fun () ->
      Datahounds.Sync.sync_documents wh ~collection:src.source_collection docs)

(* Validation and Relation2XML (the sync diff's input) of each of
   [docs], one span per document: a pass of its own, outside the timed
   replay. *)
let per_document a wh ~collection docs =
  let dtd = W.dtd_of wh ~collection in
  List.iter
    (fun (name, (doc : Gxml.Tree.document)) ->
      Option.iter
        (fun dtd -> ignore (span a "gxml.validate" (fun () -> Gxml.Dtd.validate dtd doc.root)))
        dtd;
      ignore
        (span a "datahounds.reconstruct" (fun () ->
             W.get_document wh ~collection ~name)))
    docs

(* ---------------- the query path, call by call ---------------- *)

let string_rows rows =
  List.sort_uniq compare
    (List.map (fun row -> Array.to_list (Array.map Rdb.Value.to_string row)) rows)

(* [Engine.run_text] decomposed; planning is skipped for a text whose
   plan the engine would reuse (same text, same catalog version). *)
let query a wh text =
  let db = W.db wh in
  let version = Rdb.Catalog.version (Rdb.Database.catalog db) in
  let labels, planned =
    match Hashtbl.find_opt a.plans text with
    | Some (v, labels, planned) when v = version -> (labels, planned)
    | _ ->
      let q = span a "xomatiq.parse" (fun () -> Xomatiq.Parser.parse text) in
      let t = span a "xomatiq.xq2sql" (fun () -> Xomatiq.Xq2sql.translate db q) in
      let planned =
        if t.statically_empty then None
        else
          let stmt = span a "rdb.sql_parse" (fun () -> Rdb.Sql_parser.parse t.sql) in
          let cat = Rdb.Database.catalog db in
          let p, words =
            with_words (fun () ->
                span a "rdb.plan" (fun () ->
                    match stmt with
                    | Rdb.Sql_ast.Select_stmt sel -> Rdb.Planner.plan_select cat sel
                    | Rdb.Sql_ast.Query_stmt qq -> Rdb.Planner.plan_query cat qq
                    | _ -> failwith "translation did not produce a SELECT"))
          in
          a.plan_words <- a.plan_words +. words;
          Some p
      in
      Hashtbl.replace a.plans text (version, t.labels, planned);
      (t.labels, planned)
  in
  let rows =
    match planned with
    | None -> []
    | Some planned ->
      let obs = Rdb.Obs.create planned.Rdb.Planner.plan in
      let (_, rows), words =
        with_words (fun () ->
            span a "rdb.execute" (fun () -> Rdb.Database.run_planned db ~obs planned))
      in
      a.exec_words <- a.exec_words +. words;
      a.examined <- a.examined + Rdb.Obs.total_rows obs;
      a.probes <- a.probes + Rdb.Obs.total_probes obs;
      rows
  in
  a.queries <- a.queries + 1;
  span a "xomatiq.tag" (fun () ->
      let rows = string_rows rows in
      a.results <- a.results + List.length rows;
      E.result_to_table
        { E.labels; rows; sql = ""; trace = None; cached = false })

let traced_query a wh text =
  Trace.new_request a.tr;
  span a "request" (fun () -> query a wh text)

(* ---------------- counters ---------------- *)

let file_size path =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

(* ["name": N] out of a METRICS payload *)
let json_int payload name =
  let needle = Printf.sprintf "\"%s\": " name in
  let nl = String.length needle and pl = String.length payload in
  let rec find i =
    if i + nl > pl then 0
    else if String.sub payload i nl = needle then begin
      let j = ref (i + nl) in
      while
        !j < pl && (match payload.[!j] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr j
      done;
      Option.value ~default:0
        (int_of_string_opt (String.sub payload (i + nl) (!j - i - nl)))
    end
    else find (i + 1)
  in
  find 0

type pool = { hits : int; misses : int; evictions : int; writebacks : int }

let pool () =
  { hits = Rdb.Bufpool.pool_hits (); misses = Rdb.Bufpool.pool_misses ();
    evictions = Rdb.Bufpool.pool_evictions ();
    writebacks = Rdb.Bufpool.pool_writebacks () }

let pool_delta p0 p1 =
  { hits = p1.hits - p0.hits; misses = p1.misses - p0.misses;
    evictions = p1.evictions - p0.evictions;
    writebacks = p1.writebacks - p0.writebacks }

let pool_add a b =
  { hits = a.hits + b.hits; misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions; writebacks = a.writebacks + b.writebacks }

let ratio a b = Stats.ratio (float_of_int a) (float_of_int b)

let hit_ratio (h0, m0) (h1, m1) = ratio (h1 - h0) (h1 - h0 + m1 - m0)

(* Client-side split and METRICS deltas of one server window. *)
let server_metrics ~texts ~before ~after (r : replies) =
  let seen = Hashtbl.create 1024 in
  let overhead =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i text ->
              if Hashtbl.mem seen text then
                Some ((r.lat.(i) *. 1e6) -. (r.exec_ms.(i) *. 1e3))
              else begin
                Hashtbl.add seen text ();
                None
              end)
            texts))
  in
  let d name = json_int after name - json_int before name in
  let n = Array.length texts in
  [ ("server.overhead_us", Stats.median overhead);
    ("server.response_kb",
     float_of_int (Array.fold_left (fun s b -> s + String.length b) 0 r.bodies)
     /. float_of_int n /. 1024.);
    ("server.dispatched_share",
     ratio (d "server.sched_dispatched")
       (d "server.sched_dispatched" + d "server.sched_inline"));
    ("conc.parallel_granted_share",
     ratio (d "exec.parallel_granted")
       (d "exec.parallel_granted" + d "exec.parallel_degraded")) ]

(* Serve [dir], send [texts] after [warm], split the latency; also the
   server process's context switches over the window. *)
let server_window ctx ~disk ?pool_pages dir ~warm texts =
  let srv = start_server ctx ~disk ?pool_pages dir in
  Fun.protect ~finally:(fun () -> Proc.stop srv) @@ fun () ->
  let c = Proc.connect srv in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  ignore (send_all c (Array.of_list warm));
  let pid = string_of_int srv.Proc.pid in
  let before = C.metrics c and ctx0 = Proc.ctx_switches pid in
  let r = send_all c texts in
  let ctx1 = Proc.ctx_switches pid and after = C.metrics c in
  (r, server_metrics ~texts ~before ~after r, ctx1 - ctx0)

(* ---------------- metrics from spans ---------------- *)

let span_metrics a =
  let tbl = Trace.self_times a.tr in
  let total name = fst (Option.value ~default:(0., 0) (Hashtbl.find_opt tbl name)) in
  let mean_us name =
    match Hashtbl.find_opt tbl name with
    | Some (s, n) when n > 0 -> s *. 1e6 /. float_of_int n
    | _ -> 0.
  in
  let per_doc name n = Stats.ratio (total name *. 1e6) (float_of_int n) in
  let calls name = snd (Option.value ~default:(0., 0) (Hashtbl.find_opt tbl name)) in
  [ ("xomatiq.parse_us", mean_us "xomatiq.parse");
    ("xomatiq.xq2sql_us", mean_us "xomatiq.xq2sql");
    ("xomatiq.tag_us", mean_us "xomatiq.tag");
    ("rdb.sql_parse_us", mean_us "rdb.sql_parse");
    ("rdb.plan_us", mean_us "rdb.plan");
    ("rdb.plan_alloc_kb",
     Stats.ratio (a.plan_words *. 8. /. 1024.) (float_of_int (calls "rdb.plan")));
    ("rdb.execute_us", mean_us "rdb.execute");
    ("rdb.execute_alloc_kb",
     Stats.ratio (a.exec_words *. 8. /. 1024.) (float_of_int (calls "rdb.execute")));
    ("rdb.rows_examined_per_result", ratio a.examined a.results);
    ("rdb.index_probes_per_query", ratio a.probes a.queries);
    ("datahounds.transform_us_per_doc", per_doc "datahounds.transform" a.transformed);
    ("gxml.validate_us_per_doc", mean_us "gxml.validate");
    ("datahounds.prepare_us_per_doc", mean_us "datahounds.prepare");
    ("datahounds.install_us_per_doc", per_doc "datahounds.install" a.installed);
    ("datahounds.reconstruct_us_per_doc", mean_us "datahounds.reconstruct") ]

let spans_path ctx workload =
  Filename.concat (Filename.dirname ctx.work)
    (Printf.sprintf "spans-%s-seed%d.jsonl" workload ctx.seed)

let overhead_pct ~traced ~untraced = (traced /. untraced -. 1.) *. 100.

(* the traced replay's own end-to-end time against the untraced one's *)
let replay_info a ~traced_s ~untraced_s =
  [ ("spans", string_of_int a.tr.Trace.next);
    ("replay_traced_s", Printf.sprintf "%.3f" traced_s);
    ("replay_untraced_s", Printf.sprintf "%.3f" untraced_s) ]

(* ---------------- read workloads ---------------- *)

let read_traced ctx which =
  let spec = read_spec ctx which in
  let loads = Inputs.loads spec.universe in
  let a = new_acc () in
  let dir = Proc.fresh_dir (wh_dir ctx) in
  (* the set-up load, call by call *)
  let wh = open_wh spec dir in
  let p0 = pool () in
  Trace.new_request a.tr;
  let docs = List.fold_left (fun n (src, text) -> n + harvest a wh src text) 0 loads in
  let load = pool_delta p0 (pool ()) in
  W.close wh;
  let wal_bytes = file_size (wal_of dir) in
  let page_bytes = Proc.dir_bytes (pages_of dir) in
  (* the requests, call by call, through the workload's pool *)
  Option.iter
    (fun n -> Unix.putenv "XOMATIQ_POOL_PAGES" (string_of_int n))
    spec.pool_pages;
  let warm = warm_up_texts spec in
  let replay run =
    let wh = open_wh spec dir in
    Fun.protect ~finally:(fun () -> W.close wh) @@ fun () ->
    (* path lookups happen only while translating, so most of a
       figure workload's happen during warm-up *)
    let pc0 = Xomatiq.Xq2sql.path_cache_stats () in
    List.iter (fun t -> ignore (run wh t)) warm;
    let p0 = pool () and ec0 = E.cache_stats () in
    let t0 = Proc.now () in
    Array.iter (fun t -> ignore (run wh t)) spec.texts;
    let dt = Proc.now () -. t0 in
    (dt, pool_delta p0 (pool ()), (pc0, Xomatiq.Xq2sql.path_cache_stats ()),
     (ec0, E.cache_stats ()))
  in
  (* at the server's worker count, so that plans and worker grants
     (which create the pool only when a plan asks for it) match the
     server's *)
  let workers = Conc.Pool.default_jobs () in
  Conc.Pool.set_jobs workers;
  let (traced_s, reads, (pc0, pc1), _), (untraced_s, _, _, (ec0, ec1)) =
    Fun.protect ~finally:(fun () -> Conc.Pool.set_jobs in_process_jobs) @@ fun () ->
    let traced = replay (traced_query a) in
    (traced, replay (fun wh t -> E.run_text wh t))
  in
  (* Relation2XML of whole documents, the sync diff's input *)
  Trace.new_request a.tr;
  (let wh = open_wh spec dir in
   Fun.protect ~finally:(fun () -> W.close wh) @@ fun () ->
   List.iter
     (fun collection ->
       List.iter
         (fun name ->
           ignore
             (span a "datahounds.reconstruct" (fun () ->
                  W.get_document wh ~collection ~name)))
         (List.filteri (fun i _ -> i < 20) (W.documents wh ~collection)))
     (W.collections wh));
  let r, server, switches =
    server_window ctx ~disk:spec.disk ?pool_pages:spec.pool_pages dir ~warm spec.texts
  in
  Trace.write a.tr (spans_path ctx (match which with `Adhoc -> "adhoc_gui" | `Figures -> "figures_ooc"));
  let wrong =
    wrong_answers ~provider:(Oracle.provider loads) ~sample:(oracle_sample ctx spec)
      spec.texts r.bodies
  in
  let q = Array.length spec.texts in
  let failed = r.errors + wrong in
  { correct = failed = 0; attempted = q; failed;
    metrics =
      server
      @ span_metrics a
      @ [ ("conc.ctx_switches_per_op", ratio switches q);
          (* the set-up load is this workload's one release *)
          ("rdb.analyze_ms_per_release", Trace.total a.tr "rdb.analyze" *. 1000.);
          ("xomatiq.path_cache_hit_ratio", hit_ratio pc0 pc1);
          ("xomatiq.plan_cache_hit_ratio", hit_ratio ec0 ec1);
          ("rdb.wal_bytes_per_doc", ratio wal_bytes docs);
          ("storage.pool_hit_ratio", ratio reads.hits (reads.hits + reads.misses));
          ("storage.pool_misses_per_query", ratio reads.misses q);
          ("storage.pool_evictions_per_query", ratio reads.evictions q);
          ("storage.pool_writebacks_per_doc", ratio load.writebacks docs);
          ("storage.page_bytes_per_input_byte",
           ratio page_bytes (Inputs.flat_bytes loads));
          ("datahounds.unchanged_share", 0.);
          ("trace.overhead_pct", overhead_pct ~traced:traced_s ~untraced:untraced_s) ];
    info =
      ("replay_workers", string_of_int workers) :: replay_info a ~traced_s ~untraced_s }

(* ---------------- release_sync ---------------- *)

let release_traced ctx =
  let rs = Inputs.releases ~seed:ctx.seed ~count:(release_count ctx) in
  let batch = release_batch rs in
  let embl = W.embl_source ~division:"inv" in
  let a = new_acc () in
  (* traced: the base load step by step, then every release as the
     timed run makes it *)
  let dir = Proc.fresh_dir (wh_dir ctx) in
  let wh = open_disk_wh dir in
  Trace.new_request a.tr;
  List.iter (fun (src, text) -> ignore (harvest a wh src text)) (Inputs.loads rs.base);
  List.iter (fun t -> ignore (traced_query a wh t)) batch;
  let analyze0 = Trace.total a.tr "rdb.analyze" in
  let wal0 = file_size (wal_of dir) and p0 = pool () in
  let unchanged = ref 0 and diffed = ref 0 in
  let reads = ref (pool_delta p0 p0) in
  let t0 = Proc.now () in
  let log = new_log () in
  let absorbed, traced_errors =
    apply_releases rs
      ~sync:(fun text ->
        Trace.new_request a.tr;
        Result.map
          (fun (r : Datahounds.Sync.report) ->
            unchanged := !unchanged + r.unchanged;
            diffed := !diffed + r.added + r.updated + r.removed + r.unchanged)
          (sync a wh W.enzyme_source text))
      ~harvest:(fun text -> Result.map ignore (harvest_public a wh embl text))
      ~read:(fun () ->
        let r0 = pool () in
        read_batch log batch (traced_query a wh);
        reads := pool_add !reads (pool_delta r0 (pool ())))
  in
  let traced_s = Proc.now () -. t0 in
  let writes = pool_delta p0 (pool ()) in
  let reads = !reads in
  let wal_bytes = file_size (wal_of dir) - wal0 in
  let analyze_s = Trace.total a.tr "rdb.analyze" -. analyze0 in
  let reads_traced = List.length log.samples in
  let docs = List.fold_left (fun n (d, _) -> n + d) 0 absorbed in
  Trace.new_request a.tr;
  per_document a wh ~collection:W.enzyme_source.source_collection
    (W.enzyme_source.transform
       (Datahounds.Enzyme.render (Inputs.final_universe rs).enzymes));
  W.close wh;
  (* untraced: the timed run's procedure, for the tracing overhead and
     the program's own counters *)
  let wh, _ = release_setup ctx rs in
  let plog = new_log () in
  let ec0 = E.cache_stats () and pc0 = Xomatiq.Xq2sql.path_cache_stats () in
  let ctx0 = Proc.ctx_switches "self" and t0 = Proc.now () in
  let _, public_errors =
    apply_releases rs ~sync:(public_sync wh) ~harvest:(public_harvest wh)
      ~read:(fun () -> read_batch plog batch (engine_table wh))
  in
  let untraced_s = Proc.now () -. t0 in
  let ctx1 = Proc.ctx_switches "self" in
  let ec1 = E.cache_stats () and pc1 = Xomatiq.Xq2sql.path_cache_stats () in
  let state_ok = final_state_ok wh rs in
  W.close wh;
  let page_bytes = Proc.dir_bytes (pages_of (wh_dir ctx)) in
  (* the final warehouse behind a server, for the wire-side split: the
     server layer's time must be measured, not a constant 0 *)
  let texts = Array.of_list (List.concat (List.init 10 (fun _ -> batch))) in
  let r, server, _ = server_window ctx ~disk:true (wh_dir ctx) ~warm:batch texts in
  Trace.write a.tr (spans_path ctx "release_sync");
  let wrong = oracle_failures log rs + oracle_failures plog rs in
  let ops = (2 * List.length rs.steps) + reads_traced in
  let failed =
    traced_errors + public_errors + log.read_errors + plog.read_errors
    + log.inconsistent + plog.inconsistent + wrong + r.errors
    + if state_ok then 0 else 1
  in
  { correct = failed = 0;
    attempted = (2 * ops) + Array.length texts + 1;
    failed;
    metrics =
      server
      @ span_metrics a
      @ [ (* the release process is the warehouse process here *)
          ("conc.ctx_switches_per_op", ratio (ctx1 - ctx0) ops);
          ("rdb.analyze_ms_per_release",
           analyze_s *. 1000. /. float_of_int (List.length rs.steps));
          ("xomatiq.path_cache_hit_ratio", hit_ratio pc0 pc1);
          ("xomatiq.plan_cache_hit_ratio", hit_ratio ec0 ec1);
          ("rdb.wal_bytes_per_doc", ratio wal_bytes docs);
          ("storage.pool_hit_ratio", ratio reads.hits (reads.hits + reads.misses));
          ("storage.pool_misses_per_query", ratio reads.misses reads_traced);
          ("storage.pool_evictions_per_query", ratio reads.evictions reads_traced);
          ("storage.pool_writebacks_per_doc",
           ratio (writes.writebacks - reads.writebacks) docs);
          ("storage.page_bytes_per_input_byte",
           ratio page_bytes (release_flat_bytes rs));
          ("datahounds.unchanged_share", ratio !unchanged !diffed);
          ("trace.overhead_pct", overhead_pct ~traced:traced_s ~untraced:untraced_s) ];
    info = replay_info a ~traced_s ~untraced_s }

let run ctx = function
  | "adhoc_gui" -> read_traced ctx `Adhoc
  | "figures_ooc" -> read_traced ctx `Figures
  | _ -> release_traced ctx
