(* bench.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH

   Runs one workload of the benchmark (see BENCHMARK.json) and prints,
   as its last line, one JSON object: correct, attempted, failed and the
   end-to-end metrics ([--trace 0]) or the per-layer metrics
   ([--trace 1]). The line before it records the run's provenance. *)

open Perfbench

(* Variables that shape plans or the backend: each one silently changes
   the program being measured, so none may leak in from the caller. *)
let shaping_vars =
  [ "XOMATIQ_VEC"; "XOMATIQ_VEC_BATCH"; "XOMATIQ_SCHED"; "XOMATIQ_SCHED_COST";
    "XOMATIQ_JOBS"; "XOMATIQ_STORAGE"; "XOMATIQ_STRUCTURAL_JOIN";
    "XOMATIQ_PAR_THRESHOLD"; "XOMATIQ_POOL_PAGES"; "XOMATIQ_POOL_MB" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (adhoc_gui|figures_ooc|release_sync) \
     --seed N --seconds S --trace 0|1 --cli PATH [--rev REV]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and cli = ref "" and rev = ref "unknown" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string_opt v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; parse rest
    | "--cli" :: v :: rest -> cli := v; parse rest
    | "--rev" :: v :: rest -> rev := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match !seed, !seconds, !trace with
    | Some s, Some n, Some t when n >= 1 && (t = 0 || t = 1) -> (s, n, t = 1)
    | _ -> usage ()
  in
  if not (List.mem !workload (Report.workloads @ Report.unlisted))
     || not (Sys.file_exists !cli)
  then
    usage ();
  (match List.filter (fun v -> Sys.getenv_opt v <> None) shaping_vars with
   | [] -> ()
   | leaked ->
     Printf.eprintf
       "bench: refusing to run with %s set: it changes the program being \
        measured\n"
       (String.concat ", " leaked);
     exit 2);
  let work = Filename.concat ".perfbench" (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  if not (Sys.file_exists ".perfbench") then Unix.mkdir ".perfbench" 0o755;
  let work = Proc.fresh_dir work in
  (* a terminated run still stops its servers and removes its files:
     [exit] runs the at_exit handlers *)
  at_exit (fun () -> Proc.stop_all (); Proc.rm_rf work);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let ctx = { Workloads.cli = !cli; work; seed; seconds } in
  let server_workers = Conc.Pool.jobs () in
  Conc.Pool.set_jobs Workloads.in_process_jobs;
  let cpu_before = Proc.cpu_loop_ms () in
  let alloc_before = Proc.alloc_loop_ms () in
  let r =
    if trace then Traced.run ctx !workload
    else
      match !workload with
      | "adhoc_gui" -> Workloads.read_run ctx `Adhoc
      | "figures_ooc" -> Workloads.read_run ctx `Figures
      | _ -> Workloads.release_run ctx
  in
  let cpu_after = Proc.cpu_loop_ms () in
  let alloc_after = Proc.alloc_loop_ms () in
  let provenance =
    [ ("workload", !workload); ("seed", string_of_int seed);
      ("seconds", string_of_int seconds); ("trace", string_of_bool trace);
      ("rev", !rev); ("ocaml", Sys.ocaml_version);
      ("host_cores", string_of_int (Domain.recommended_domain_count ()));
      ("server_workers", string_of_int server_workers);
      ("in_process_workers", string_of_int (Conc.Pool.jobs ()));
      ("flush_policy",
       "WAL written to the OS on commit without fsync; spools and \
        checkpoints fsync");
      ("loop", "closed, 1 client");
      ("cpu_loop_ms_before", Printf.sprintf "%.1f" cpu_before);
      ("cpu_loop_ms_after", Printf.sprintf "%.1f" cpu_after);
      ("alloc_loop_ms_before", Printf.sprintf "%.1f" alloc_before);
      ("alloc_loop_ms_after", Printf.sprintf "%.1f" alloc_after) ]
    @ r.Workloads.info
  in
  Printf.printf "{\"provenance\": %s}\n" (Report.json_string_map provenance);
  print_endline
    (Report.line
       ~catalogue:(if trace then Report.per_layer else Report.end_to_end)
       ~correct:r.correct ~attempted:r.attempted ~failed:r.failed r.metrics)
