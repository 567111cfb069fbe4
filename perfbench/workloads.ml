(* The three workloads, each driven from outside the program through a
   public surface: read requests go to a [xomatiq serve] child over
   xomatiq/1, writes go through the Data Hounds harvest/sync API.

   A timed run ([read_run], [release_run]) sets the workload up several
   times (set-up time is their median) and measures a fixed amount of
   work — a request or release count derived from [--seconds], never a
   wall-clock window, so the first-seen/repeat mix and the page-access
   sequence repeat exactly for a seed: a read workload one window of
   requests after each set-up, release_sync its releases after each.
   It checks the outputs afterwards. GC runs inside every timing:
   nothing forces a collection before a sample.

   The traced run ({!Traced}) replays the same inputs for the per-layer
   metrics. *)

module W = Datahounds.Warehouse
module C = Xserver.Client
module E = Xomatiq.Engine

let now = Proc.now
let ms s = s *. 1000.

type ctx = {
  cli : string;   (* the built [xomatiq] CLI *)
  work : string;  (* working directory of this run *)
  seed : int;
  seconds : int;
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  info : (string * string) list;  (* sizes and settings, for provenance *)
}

(* The [xomatiq serve] child runs at the program's default worker count,
   one per core. The benchmark's own process runs its share of the
   program — the Data Hounds harvests and syncs, and release_sync's
   reads — with one worker, and the traced read replays at the server's
   count. At two workers, on a 2-core host whose cores other processes
   share, release_sync's entries absorbed per second read 102-111 in
   three runs and 56-61 in four runs six minutes later, and
   figures_ooc's 450-entry set-up harvest took 7.3 s in one set-up and
   14.9 s in the next: with resident worker domains, each minor GC waits
   for the other core, so the figures followed the other processes'
   load, not the program. The parallel harvest path is therefore
   measured by no workload. *)
let in_process_jobs = 1

(* Frames of [figures_ooc]'s pool: 512 KiB, about 13x smaller than its
   pages (E10's out-of-core configuration). *)
let ooc_pool_pages = 64

(* Work per second of [--seconds], sized so a run measures for about
   that long on a 2-core host: an adhoc_gui window of requests takes
   5-7 s there. *)
let adhoc_window_s = 6
let figures_requests_per_s = 500
let releases_per_s = 1

(* A read run measures its requests in windows, one per set-up, each on
   a fresh server, and reports each request metric as the windows'
   median. Other load on the host comes and goes within seconds: one
   run's adhoc_gui windows read p95_ms 8.4, 9.6, 11.1 and 12.1 ms. An
   adhoc_gui window of 2500 requests keeps 31-32% of them first-seen (a
   quarter to a third, as in the GUI modes); one of 2000 keeps 34%, one
   of 10000 19%. *)
let adhoc_window = 2500
let figures_windows = 3

(* Read passes over the batch after each release: the first pays for
   re-planning after the catalog change, the others reuse plans. *)
let read_passes = 4

let harvest_all wh loads =
  List.fold_left
    (fun n ((src : W.source), text) ->
      W.register_source wh src;
      match W.harvest wh src text with
      | Ok d -> n + d
      | Error m -> failwith ("harvest " ^ src.source_name ^ ": " ^ m))
    0 loads

let wh_dir ctx = Filename.concat ctx.work "wh"
let wal_of dir = Filename.concat dir "wh.wal"
let pages_of dir = Filename.concat dir "pages"

(* ------------------------------------------------------------------ *)
(* Requests over xomatiq/1                                             *)
(* ------------------------------------------------------------------ *)

type replies = {
  lat : float array;      (* client-side seconds *)
  exec_ms : float array;  (* the DONE trailer's server execution time *)
  bodies : string array;
  errors : int;
}

let send_all c texts =
  let n = Array.length texts in
  let lat = Array.make n 0. and exec_ms = Array.make n 0.
  and bodies = Array.make n "" and errors = ref 0 in
  Array.iteri
    (fun i text ->
      let t0 = now () in
      (match C.query c text with
       | body, s ->
         exec_ms.(i) <- s.Xserver.Protocol.sum_exec_ms;
         bodies.(i) <- body
       | exception
           (C.Server_error _ | Unix.Unix_error _ | Failure _ | End_of_file) ->
         incr errors);
      lat.(i) <- now () -. t0)
    texts;
  { lat; exec_ms; bodies; errors = !errors }

(* Answers that differ from their text's first answer, plus every answer
   to a sampled text whose first answer the oracle rejects. *)
let wrong_answers ~provider ~sample texts bodies =
  let first = Hashtbl.create 1024 in
  let wrong = ref 0 in
  Array.iteri
    (fun i text ->
      match Hashtbl.find_opt first text with
      | None -> Hashtbl.add first text bodies.(i)
      | Some b -> if not (String.equal b bodies.(i)) then incr wrong)
    texts;
  List.iter
    (fun text ->
      if not (Oracle.agrees provider text (Hashtbl.find first text)) then
        Array.iter (fun t -> if String.equal t text then incr wrong) texts)
    sample;
  !wrong

let floats l = String.concat " " (List.map (Printf.sprintf "%.3f") l)

(* The request metrics of a window of latencies [lats], of its cold
   requests (those the program had no plan to reuse for) and of the
   requests whose median is [p50_ms]. [qps] is requests per second of
   request time, which for one closed-loop client is its window. *)
let window_metrics ~cold ~median_of lats =
  [ ("qps", float_of_int (List.length lats) /. Stats.sum lats);
    ("p50_ms", ms (Stats.median median_of));
    ("p95_ms", ms (Stats.percentile 0.95 lats));
    ("cold_p50_ms", ms (Stats.median cold)) ]

(* Each metric's median over [windows], metric lists with the same
   names. A window that met a burst of other load on the host moves the
   median less than it would move a percentile of the pooled samples,
   whose tail would be that window's. *)
let medians = function
  | [] -> []
  | w :: _ as windows ->
    List.map
      (fun (name, _) -> (name, Stats.median (List.map (List.assoc name) windows)))
      w

(* each metric's value in every window, for provenance *)
let each = function
  | [] -> []
  | w :: _ as windows ->
    List.map
      (fun (name, _) ->
        (name ^ "_each", floats (List.map (List.assoc name) windows)))
      w

(* ------------------------------------------------------------------ *)
(* Read workloads: adhoc_gui and figures_ooc                           *)
(* ------------------------------------------------------------------ *)

type read_spec = {
  universe : Workload.Genbio.universe;
  texts : string array;     (* one window's requests *)
  groups : string array;    (* oracle sampling strata: task class *)
  disk : bool;
  pool_pages : int option;  (* the server's pool; None = the default *)
  warm_rounds : int;        (* Fig. 8/9/11 rounds sent to warm up *)
  cold_rounds : int;        (* cold probe rounds after each window *)
  windows : int;            (* set-ups, each measuring one window *)
}

let read_spec ctx = function
  | `Adhoc ->
    let universe = Inputs.adhoc_universe ctx.seed in
    let reqs = Inputs.adhoc_requests ~seed:ctx.seed ~universe ~count:adhoc_window in
    { universe; texts = Array.map snd reqs;
      groups = Array.map (fun (c, _) -> Workload.Query_mix.class_name c) reqs;
      disk = false; pool_pages = None; warm_rounds = 1; cold_rounds = 0;
      windows = max 1 (ctx.seconds / adhoc_window_s) }
  | `Figures ->
    let texts =
      Inputs.figure_requests (figures_requests_per_s * ctx.seconds / figures_windows)
    in
    { universe = Inputs.figures_universe ctx.seed; texts; groups = texts;
      disk = true; pool_pages = Some ooc_pool_pages; warm_rounds = 20;
      cold_rounds = 20; windows = figures_windows }

let open_wh spec dir =
  if spec.disk then W.create ~wal:(wal_of dir) ~data_dir:(pages_of dir) ()
  else W.create ~wal:(wal_of dir) ()

let start_server ctx ~disk ?pool_pages dir =
  Proc.start ~cli:ctx.cli ~log:(Filename.concat ctx.work "serve.log")
    ?pool_pages
    ([ "--db"; wal_of dir ] @ if disk then [ "--data-dir"; pages_of dir ] else [])

let warm_up_texts spec =
  List.concat (List.init spec.warm_rounds (fun _ -> Inputs.figures))

type setup = {
  srv : Proc.server;
  client : C.t;
  setup_s : float;
  harvest_docs_s : float;
}

(* Harvest the warehouse, start the server, warm up. *)
let read_setup ctx spec =
  let t0 = now () in
  let loads = Inputs.loads spec.universe in
  let dir = Proc.fresh_dir (wh_dir ctx) in
  let wh = open_wh spec dir in
  let docs, harvest_s = Proc.timed (fun () -> harvest_all wh loads) in
  W.close wh;
  let srv = start_server ctx ~disk:spec.disk ?pool_pages:spec.pool_pages dir in
  let client = Proc.connect srv in
  let warm = send_all client (Array.of_list (warm_up_texts spec)) in
  if warm.errors > 0 then failwith "warm-up requests failed";
  { srv; client; setup_s = now () -. t0;
    harvest_docs_s = float_of_int docs /. harvest_s }

(* [rounds] rounds, each bumping the catalog version (ANALYZE of the
   smallest warehouse table, which leaves the statistics and so the
   plans as they were) and then sending every figure text once: cold
   requests, which the server must plan again. *)
let cold_probes c rounds =
  let texts = Array.of_list Inputs.figures in
  List.init rounds (fun _ ->
      ignore (C.sql c "ANALYZE xml_doc");
      (texts, send_all c texts))

let oracle_sample ctx spec =
  Oracle.sample ~seed:ctx.seed ~per_group:10
    (Array.to_list (Array.map2 (fun g t -> (g, t)) spec.groups spec.texts))

(* Set up, send one window of requests (and the cold probes), tear
   down: [windows] times. [setup_s] and [docs_per_s] are the set-ups'
   medians, the request metrics the windows' medians. *)
let read_run ctx which =
  let spec = read_spec ctx which in
  let loads = Inputs.loads spec.universe in
  let runs =
    List.init spec.windows (fun _ ->
        let s = read_setup ctx spec in
        let r = send_all s.client spec.texts in
        let rss = Proc.hwm_mib (string_of_int s.srv.Proc.pid) in
        let probes = cold_probes s.client spec.cold_rounds in
        C.close s.client;
        Proc.stop s.srv;
        (s, r, rss, probes))
  in
  let all = List.map (fun (s, _, _, _) -> s) runs in
  let data_bytes = Proc.dir_bytes (wh_dir ctx) in
  let sample = oracle_sample ctx spec in
  (* every request, the probes' too, in the order sent *)
  let sent =
    List.concat_map (fun (_, r, _, probes) -> (spec.texts, r) :: probes) runs
  in
  let texts = Array.concat (List.map fst sent) in
  let wrong =
    wrong_answers ~provider:(Oracle.provider loads) ~sample texts
      (Array.concat (List.map (fun (_, r) -> r.bodies) sent))
  in
  let first = Inputs.first_seen spec.texts in
  let windows =
    List.map
      (fun (_, r, _, probes) ->
        let lat = Array.to_list r.lat in
        let cold =
          match which with
          | `Adhoc -> List.filteri (fun i _ -> first.(i)) lat
          | `Figures ->
            (* no first-seen text inside a window: its cold requests
               are the probes' *)
            List.concat_map (fun (_, p) -> Array.to_list p.lat) probes
        in
        window_metrics ~cold ~median_of:lat lat)
      runs
  in
  let n = Array.length texts in
  let failed = List.fold_left (fun a (_, r) -> a + r.errors) wrong sent in
  let first_seen = Array.fold_left (fun a b -> if b then a + 1 else a) 0 first in
  { correct = failed = 0; attempted = n; failed;
    metrics =
      [ ("setup_s", Stats.median (List.map (fun s -> s.setup_s) all)) ]
      @ medians windows
      @ [ ("docs_per_s", Stats.median (List.map (fun s -> s.harvest_docs_s) all));
          ("rss_peak_mb", List.fold_left (fun a (_, _, m, _) -> Float.max a m) 0. runs);
          ("disk_bytes_per_input_byte",
           float_of_int data_bytes /. float_of_int (Inputs.flat_bytes loads)) ];
    info =
      [ ("entries", string_of_int (Inputs.entries spec.universe));
        ("flat_bytes", string_of_int (Inputs.flat_bytes loads));
        ("data_bytes", string_of_int data_bytes);
        ("backend", if spec.disk then "disk+wal" else "mem+wal");
        ("pool_frames",
         match spec.pool_pages with
         | Some n -> string_of_int n
         | None -> "none");
        ("windows", string_of_int spec.windows);
        ("requests_per_window", string_of_int (Array.length spec.texts));
        ("first_seen_per_window", string_of_int first_seen);
        ("oracle_texts", string_of_int (List.length sample));
        ("setup_s_each", floats (List.map (fun s -> s.setup_s) all));
        ("docs_per_s_each", floats (List.map (fun s -> s.harvest_docs_s) all)) ]
      @ each windows }

(* ------------------------------------------------------------------ *)
(* release_sync                                                        *)
(* ------------------------------------------------------------------ *)

(* A run applies the releases [release_rounds] times, each time to a
   fresh set-up, and pools the rounds' samples. Reads slow down as the
   releases add EMBL entries: in one 25-release run the warm reads'
   median was 0.17 ms over releases 1-5, 0.37 ms over 11-15 and 0.83 ms
   over 16-20, where the same seed read 0.52 ms in another run. Two
   rounds of half as many releases keep the warehouse short of that
   step and measure each read over two set-ups. *)
let release_rounds = 2

(* releases of one round *)
let release_count ctx = max 1 (releases_per_s * ctx.seconds / release_rounds)

let release_batch (rs : Inputs.releases) = Inputs.figures @ rs.gui

let release_flat_bytes (rs : Inputs.releases) =
  Inputs.flat_bytes (Inputs.loads rs.base)
  + List.fold_left
      (fun acc r ->
        acc + String.length (Inputs.enzyme_release r)
        + String.length (Inputs.embl_release r))
      0 rs.steps

let open_disk_wh dir = W.create ~wal:(wal_of dir) ~data_dir:(pages_of dir) ()

let document_xml wh collection name =
  Option.map Gxml.Printer.document_to_string (W.get_document wh ~collection ~name)

(* The warehouse holds exactly the final release's documents: the same
   collections, names and reconstructed XML as a fresh in-memory harvest
   of the final release files. *)
let final_state_ok wh rs =
  let fresh = W.create () in
  Fun.protect ~finally:(fun () -> W.close fresh) @@ fun () ->
  ignore (harvest_all fresh (Inputs.loads (Inputs.final_universe rs)));
  let colls = W.collections fresh in
  W.collections wh = colls
  && List.for_all
       (fun collection ->
         let names = W.documents fresh ~collection in
         W.documents wh ~collection = names
         && List.for_all
              (fun name ->
                let got = document_xml wh collection name in
                got <> None && got = document_xml fresh collection name)
              names)
       colls

type read_log = {
  mutable samples : (float * bool) list;  (* latency, cold; newest first *)
  mutable read_errors : int;
  mutable inconsistent : int;
  mutable last_batch : (string * string) list;  (* text, table *)
}

let new_log () =
  { samples = []; read_errors = 0; inconsistent = 0; last_batch = [] }

(* [read_passes] passes over the batch; later passes must answer like
   the first. [query] returns the rendered table. *)
let read_batch log batch query =
  let first = Hashtbl.create 16 in
  for pass = 1 to read_passes do
    List.iter
      (fun text ->
        let t0 = now () in
        match query text with
        | table ->
          log.samples <- (now () -. t0, pass = 1) :: log.samples;
          if pass = 1 then Hashtbl.replace first text table
          else if Hashtbl.find_opt first text <> Some table then
            log.inconsistent <- log.inconsistent + 1
        | exception _ -> log.read_errors <- log.read_errors + 1)
      batch
  done;
  log.last_batch <-
    List.filter_map
      (fun t -> Option.map (fun b -> (t, b)) (Hashtbl.find_opt first t))
      batch

let engine_table wh text = E.result_to_table (E.run_text wh text)

let release_setup ctx rs =
  let t0 = now () in
  let dir = Proc.fresh_dir (wh_dir ctx) in
  let wh = open_disk_wh dir in
  ignore (harvest_all wh (Inputs.loads rs.Inputs.base));
  List.iter (fun t -> ignore (E.run_text wh t)) (release_batch rs);
  (wh, now () -. t0)

(* Apply every release through the public API; returns each release's
   entries absorbed and write seconds, and the write failures. *)
let apply_releases ~sync ~harvest ~read (rs : Inputs.releases) =
  let errors = ref 0 in
  let writes =
    List.map
      (fun (r : Inputs.release) ->
        let t0 = now () in
        (match sync (Inputs.enzyme_release r) with
         | Ok () -> ()
         | Error _ | (exception _) -> incr errors);
        (match harvest (Inputs.embl_release r) with
         | Ok () -> ()
         | Error _ | (exception _) -> incr errors);
        let write_s = now () -. t0 in
        read ();
        (List.length r.enzymes + List.length r.new_embl, write_s))
      rs.steps
  in
  (writes, !errors)

let public_sync wh text =
  Result.map ignore (Datahounds.Sync.sync_source wh W.enzyme_source text)

let public_harvest wh text =
  Result.map ignore (W.harvest wh (W.embl_source ~division:"inv") text)

let oracle_failures log rs =
  let provider = Oracle.provider (Inputs.loads (Inputs.final_universe rs)) in
  List.length
    (List.filter
       (fun (text, table) -> not (Oracle.agrees provider text table))
       log.last_batch)

let release_run ctx =
  let rs = Inputs.releases ~seed:ctx.seed ~count:(release_count ctx) in
  let batch = release_batch rs in
  let log = new_log () in
  let round () =
    let wh, setup_s = release_setup ctx rs in
    let writes, write_errors =
      apply_releases ~sync:(public_sync wh) ~harvest:(public_harvest wh)
        ~read:(fun () -> read_batch log batch (engine_table wh))
        rs
    in
    let rss = Proc.hwm_mib "self" in
    let state_ok = final_state_ok wh rs in
    let wrong = oracle_failures log rs in
    let frames =
      match Rdb.Database.storage (W.db wh) with
      | Some st -> string_of_int (Rdb.Bufpool.frames (Rdb.Storage.pool st))
      | None -> "none"
    in
    W.close wh;
    let failed = write_errors + wrong + if state_ok then 0 else 1 in
    (setup_s, writes, failed, rss, frames, Proc.dir_bytes (wh_dir ctx))
  in
  let rounds = List.init release_rounds (fun _ -> round ()) in
  let setups = List.map (fun (s, _, _, _, _, _) -> s) rounds in
  let writes = List.concat_map (fun (_, w, _, _, _, _) -> w) rounds in
  (* the peak before the first oracle ran: a later reading would hold
     the oracle's own warehouse *)
  let _, _, _, rss, frames, data_bytes = List.hd rounds in
  let reads = List.length log.samples in
  (* pass 1 after a release re-plans (cold_p50_ms); p50_ms is the
     median of the passes that reuse its plans *)
  let cold, warm = List.partition snd log.samples in
  let docs = List.fold_left (fun n (d, _) -> n + d) 0 writes in
  let failed =
    List.fold_left (fun a (_, _, f, _, _, _) -> a + f) 0 rounds
    + log.read_errors + log.inconsistent
  in
  { correct = failed = 0;
    attempted = List.length writes * 2 + reads + release_rounds;
    failed;
    metrics =
      [ ("setup_s", Stats.median setups) ]
      @ window_metrics ~cold:(List.map fst cold) ~median_of:(List.map fst warm)
          (List.map fst log.samples)
      @ [ ("docs_per_s", float_of_int docs /. Stats.sum (List.map snd writes));
          ("rss_peak_mb", rss);
          ("disk_bytes_per_input_byte",
           float_of_int data_bytes /. float_of_int (release_flat_bytes rs)) ];
    info =
      [ ("base_entries", string_of_int (Inputs.entries rs.base));
        ("rounds", string_of_int release_rounds);
        ("releases_per_round", string_of_int (List.length rs.steps));
        ("entries_absorbed", string_of_int docs);
        ("reads", string_of_int reads);
        ("flat_bytes", string_of_int (release_flat_bytes rs));
        ("data_bytes", string_of_int data_bytes);
        ("backend", "disk+wal");
        ("pool_frames", frames);
        ("setup_s_each", floats setups) ] }
