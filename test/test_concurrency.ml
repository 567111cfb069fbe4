(* Multicore XomatiQ: the domain pool itself, Exchange-parallel query
   execution, Data Hounds loading at any worker count, and domain-safety
   of the shared engine state (plan cache, Obs counters, catalog
   version). *)

let check = Alcotest.check

module D = Datahounds

(* ---------------- the pool ---------------- *)

let test_parallel_map () =
  let pool = Conc.Pool.create 4 in
  Fun.protect ~finally:(fun () -> Conc.Pool.shutdown pool) @@ fun () ->
  let xs = List.init 100 Fun.id in
  check
    Alcotest.(list int)
    "order preserved"
    (List.map (fun x -> x * x) xs)
    (Conc.Pool.parallel_map pool (fun x -> x * x) xs);
  check Alcotest.(list int) "empty input" []
    (Conc.Pool.parallel_map pool (fun x -> x) []);
  (* a pool of size 1 degenerates to List.map *)
  let p1 = Conc.Pool.create 1 in
  check
    Alcotest.(list int)
    "size-1 pool" [ 2; 4; 6 ]
    (Conc.Pool.parallel_map p1 (fun x -> 2 * x) [ 1; 2; 3 ]);
  Conc.Pool.shutdown p1

exception Boom of int

let test_exception_propagation () =
  let pool = Conc.Pool.create 4 in
  Fun.protect ~finally:(fun () -> Conc.Pool.shutdown pool) @@ fun () ->
  (* the first failure by input position is the one reported *)
  match
    Conc.Pool.parallel_map pool
      (fun x -> if x mod 3 = 2 then raise (Boom x) else x)
      (List.init 20 Fun.id)
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom n -> check Alcotest.int "lowest failing input" 2 n

let test_nested_submission () =
  (* a task that itself fans out through the same pool must not deadlock:
     the awaiting caller helps drain the queue *)
  let pool = Conc.Pool.create 2 in
  Fun.protect ~finally:(fun () -> Conc.Pool.shutdown pool) @@ fun () ->
  let outer =
    Conc.Pool.parallel_map pool
      (fun i ->
        let inner = Conc.Pool.parallel_map pool (fun j -> (10 * i) + j) [ 1; 2; 3 ] in
        List.fold_left ( + ) 0 inner)
      [ 1; 2; 3; 4 ]
  in
  check Alcotest.(list int) "nested fan-out" [ 36; 66; 96; 126 ] outer

let test_jobs_controls () =
  let saved = Conc.Pool.jobs () in
  Conc.Pool.set_jobs 3;
  check Alcotest.int "set_jobs" 3 (Conc.Pool.jobs ());
  check Alcotest.int "pool matches" 3 (Conc.Pool.size (Conc.Pool.get ()));
  Conc.Pool.with_jobs 1 (fun () ->
      check Alcotest.int "with_jobs overrides" 1 (Conc.Pool.jobs ()));
  check Alcotest.int "with_jobs restores" 3 (Conc.Pool.jobs ());
  (match Conc.Pool.with_jobs 2 (fun () -> failwith "boom") with
   | () -> Alcotest.fail "expected failure"
   | exception Failure _ -> ());
  check Alcotest.int "with_jobs restores on raise" 3 (Conc.Pool.jobs ());
  Conc.Pool.set_jobs saved

let contains_sub s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---------------- the adaptive scheduler ---------------- *)

let test_sched_plan_decisions () =
  let open Conc.Sched in
  Conc.Pool.with_jobs 2 (fun () ->
      let cheap = plan_decision ~est_cost:10. in
      check Alcotest.bool "cheap query stays sequential" false cheap.par;
      check Alcotest.string "cheap reason" "cost" cheap.reason;
      let costly = plan_decision ~est_cost:1e9 in
      check Alcotest.bool "expensive query requests workers" true costly.par;
      check Alcotest.int "worker request matches jobs" 2 costly.workers;
      check Alcotest.string "expensive reason" "pool-idle" costly.reason;
      (* the threshold is the exact boundary *)
      let at = plan_decision ~est_cost:cost_threshold in
      check Alcotest.bool "cost at threshold goes parallel" true at.par);
  Conc.Pool.with_jobs 1 (fun () ->
      let costly = plan_decision ~est_cost:1e9 in
      check Alcotest.bool "jobs=1 never parallel" false costly.par;
      check Alcotest.string "jobs=1 reason" "forced" costly.reason)

let test_pool_available () =
  let pool = Conc.Pool.create 3 in
  Fun.protect ~finally:(fun () -> Conc.Pool.shutdown pool) @@ fun () ->
  check Alcotest.int "idle pool: every worker available" 2
    (Conc.Pool.available pool);
  (* park both workers on a gate and watch availability drain *)
  let gate = Atomic.make false in
  let futs =
    List.init 2 (fun _ ->
        Conc.Pool.submit pool (fun () ->
            while not (Atomic.get gate) do Domain.cpu_relax () done))
  in
  let rec await_value what want tries =
    let got = Conc.Pool.available pool in
    if got = want then ()
    else if tries = 0 then
      Alcotest.fail (Printf.sprintf "%s: available=%d, want %d" what got want)
    else begin Thread.delay 0.01; await_value what want (tries - 1) end
  in
  await_value "busy pool exhausts availability" 0 300;
  (* the run-time idle gate refuses a fan-out right now *)
  check Alcotest.bool "no idle worker: degrade to sequential" false
    (Conc.Sched.exchange_parallel pool ~workers:3);
  Atomic.set gate true;
  List.iter (Conc.Pool.await pool) futs;
  await_value "drained pool recovers" 2 300;
  check Alcotest.bool "idle again: fan-out granted" true
    (Conc.Sched.exchange_parallel pool ~workers:3)

let test_pool_peek () =
  (* [peek] never creates the pool; a [with_jobs] override above 1
     creates it eagerly so adaptive Exchange gates — which only peek —
     can borrow its workers even on a single-core host *)
  Conc.Pool.with_jobs 3 (fun () ->
      match Conc.Pool.peek () with
      | Some p ->
        check Alcotest.int "eager pool matches override" 3 (Conc.Pool.size p)
      | None -> Alcotest.fail "with_jobs 3 must create the pool");
  (* leaving the scope retires the override-sized pool *)
  match Conc.Pool.peek () with
  | Some p ->
    check Alcotest.bool "override pool retired" true (Conc.Pool.size p <> 3)
  | None -> ()

let test_explain_sched_footer () =
  let db = Rdb.Database.open_in_memory () in
  Fun.protect ~finally:(fun () -> Rdb.Database.close db) @@ fun () ->
  ignore (Rdb.Database.exec_exn db "CREATE TABLE t (id INTEGER)");
  (match
     Rdb.Database.insert_rows db ~table:"t"
       (List.init 300 (fun i -> [| Rdb.Value.Int i |]))
   with
   | Ok _ -> ()
   | Error m -> failwith m);
  Conc.Pool.with_jobs 2 @@ fun () ->
  let explain sql =
    match Rdb.Database.explain db sql with
    | Ok p -> p
    | Error m -> failwith m
  in
  let cheap = explain "SELECT id FROM t WHERE id < 5" in
  check Alcotest.bool "cheap plan announces sequential lane" true
    (contains_sub cheap "sched=seq");
  check Alcotest.bool "cheap plan names the cost gate" true
    (contains_sub cheap "reason=cost");
  let costly = explain "SELECT COUNT(1) FROM t a, t b, t c" in
  check Alcotest.bool "expensive plan requests workers" true
    (contains_sub costly "sched=par");
  check Alcotest.bool "worker count surfaced" true
    (contains_sub costly "workers=2")

(* ---------------- Exchange-parallel scans ---------------- *)

let scan_fixture () =
  let db = Rdb.Database.open_in_memory () in
  ignore (Rdb.Database.exec_exn db "CREATE TABLE big (id INTEGER, v TEXT)");
  let rows =
    List.init 500 (fun i ->
        [| Rdb.Value.Int i; Rdb.Value.Text (Printf.sprintf "v%03d" (i mod 97)) |])
  in
  (match Rdb.Database.insert_rows db ~table:"big" rows with
   | Ok _ -> ()
   | Error m -> failwith m);
  db

let with_low_threshold f =
  (* the planner reads XOMATIQ_PAR_THRESHOLD on every plan, so the test
     can lower it below the fixture's 500 rows and restore it after *)
  Unix.putenv "XOMATIQ_PAR_THRESHOLD" "100";
  Fun.protect ~finally:(fun () -> Unix.putenv "XOMATIQ_PAR_THRESHOLD" "") f

let test_exchange_plan () =
  let db = scan_fixture () in
  with_low_threshold @@ fun () ->
  let sql = "SELECT id, v FROM big WHERE v = 'v007'" in
  let plan_at jobs =
    Conc.Pool.with_jobs jobs (fun () ->
        match Rdb.Database.explain db sql with
        | Ok p -> p
        | Error m -> failwith m)
  in
  let seq = plan_at 1 and par = plan_at 4 in
  check Alcotest.bool "jobs=1 has no Exchange" false (contains_sub seq "Exchange");
  check Alcotest.bool "jobs=4 plans an Exchange" true
    (contains_sub par "Exchange workers=4");
  check Alcotest.bool "partitions are visible" true (contains_sub par "part=1/4");
  Rdb.Database.close db

let test_exchange_results_identical () =
  let db = scan_fixture () in
  with_low_threshold @@ fun () ->
  let queries =
    [ "SELECT id, v FROM big WHERE v = 'v007'";
      "SELECT COUNT(1) FROM big WHERE id >= 250";
      (* hash join: the build side is also eligible for partitioning *)
      "SELECT a.id, b.id FROM big a, big b WHERE a.v = b.v AND a.id < 5" ]
  in
  List.iter
    (fun sql ->
      let run jobs =
        Conc.Pool.with_jobs jobs (fun () -> Rdb.Database.query db sql)
      in
      match (run 1, run 4) with
      | Ok (c1, r1), Ok (c4, r4) ->
        check Alcotest.(list string) (sql ^ ": columns") c1 c4;
        check Alcotest.int (sql ^ ": row count") (List.length r1) (List.length r4);
        List.iteri
          (fun i (a, b) ->
            if a <> b then
              Alcotest.fail
                (Printf.sprintf "%s: row %d differs (parallel order broke)" sql i))
          (List.combine r1 r4)
      | Error m, _ | _, Error m -> failwith m)
    queries;
  (* EXPLAIN ANALYZE surfaces per-worker row counters *)
  let out =
    Conc.Pool.with_jobs 4 (fun () ->
        match Rdb.Database.explain_analyze db "SELECT id FROM big WHERE id < 9" with
        | Ok p -> p
        | Error m -> failwith m)
  in
  check Alcotest.bool "analyze shows workers" true
    (contains_sub out "Exchange workers=4");
  check Alcotest.bool "analyze shows per-partition stats" true
    (contains_sub out "part=1/4");
  Rdb.Database.close db

(* ---------------- Data Hounds at any worker count ---------------- *)

let universe =
  Workload.Genbio.generate
    { Workload.Genbio.seed = 7; n_enzymes = 15; n_embl = 15; n_sprot = 12;
      n_citations = 8; cdc6_rate = 0.2; ketone_rate = 0.3; ec_link_rate = 0.7;
      seq_length = 40 }

let dump_tables wh =
  let db = D.Warehouse.db wh in
  String.concat "\n"
    (List.map
       (fun sql ->
         match Rdb.Database.query db sql with
         | Ok (_, rows) ->
           String.concat "\n"
             (List.map
                (fun row ->
                  String.concat "|"
                    (List.map Rdb.Value.to_literal (Array.to_list row)))
                rows)
         | Error m -> failwith m)
       [ "SELECT doc_id, collection, name, root_tag FROM xml_doc ORDER BY doc_id";
         "SELECT path_id, path FROM xml_path ORDER BY path_id";
         "SELECT doc_id, node_id, parent_id, ord, kind, name, path_id, sval, \
          nval, is_seq, last_desc FROM xml_node ORDER BY doc_id, node_id";
         "SELECT doc_id, node_id, word FROM xml_keyword ORDER BY doc_id, \
          node_id, word" ])

let load_universe_at jobs =
  Conc.Pool.with_jobs jobs (fun () ->
      let wh = D.Warehouse.create () in
      (match Workload.Genbio.load_universe wh universe with
       | Ok () -> ()
       | Error m -> failwith m);
      wh)

let test_parallel_harvest_identical () =
  let wh1 = load_universe_at 1 and wh4 = load_universe_at 4 in
  let d1 = dump_tables wh1 and d4 = dump_tables wh4 in
  check Alcotest.bool "warehouse has rows" true (String.length d1 > 0);
  check Alcotest.bool "jobs=4 tables byte-identical to jobs=1" true (d1 = d4);
  D.Warehouse.close wh1;
  D.Warehouse.close wh4

let harvest_error_at jobs source text =
  Conc.Pool.with_jobs jobs (fun () ->
      let wh = D.Warehouse.create () in
      D.Warehouse.register_source wh source;
      let r = D.Warehouse.harvest wh source text in
      let docs = D.Warehouse.document_count wh ~collection:source.D.Warehouse.source_collection in
      D.Warehouse.close wh;
      (r, docs))

let test_parallel_harvest_errors_identical () =
  (* a malformed third entry: the error names its whole-file entry/line
     position whatever the worker count, and a parse failure installs
     nothing *)
  let good n =
    Printf.sprintf "ID   %d.1.1.1\nDE   Enzyme number %d.\n//" n n
  in
  let bad_text =
    String.concat "\n" [ good 1; good 2; "ID   3.1.1.1"; "X"; "//"; good 4; "" ]
  in
  let (r1, d1) = harvest_error_at 1 D.Warehouse.enzyme_source bad_text in
  let (r4, d4) = harvest_error_at 4 D.Warehouse.enzyme_source bad_text in
  (match (r1, r4) with
   | Error m1, Error m4 ->
     check Alcotest.string "error text identical across jobs" m1 m4;
     check Alcotest.bool "position is whole-file" true
       (contains_sub m1 "entry 2" && contains_sub m1 "line 8")
   | _ -> Alcotest.fail "expected both loads to fail");
  check Alcotest.int "jobs=1 installs nothing" 0 d1;
  check Alcotest.int "jobs=4 installs nothing" 0 d4;
  (* an unterminated final entry reports the same error too *)
  let unterminated = String.concat "\n" [ good 1; "ID   2.1.1.1" ] in
  let (u1, _) = harvest_error_at 1 D.Warehouse.enzyme_source unterminated in
  let (u4, _) = harvest_error_at 4 D.Warehouse.enzyme_source unterminated in
  (match (u1, u4) with
   | Error m1, Error m4 -> check Alcotest.string "unterminated entry" m1 m4
   | _ -> Alcotest.fail "expected both loads to fail");
  (* an entry with no ID line before a malformed one: the whole text is
     split into entries before any entry is parsed, so the malformed
     line is the error at every worker count *)
  let no_id =
    String.concat "\n"
      [ "ID   1.1.1.1"; "DE   Enzyme one."; "//"; "DE   Entry without an ID line.";
        "//"; "ID   3.1.1.1"; "X"; "//" ]
  in
  let (n1, nd1) = harvest_error_at 1 D.Warehouse.enzyme_source no_id in
  let (n4, nd4) = harvest_error_at 4 D.Warehouse.enzyme_source no_id in
  List.iter
    (fun (jobs, r, docs) ->
      (match r with
       | Error m ->
         check Alcotest.bool
           (Printf.sprintf "jobs=%d reports the malformed line: %s" jobs m)
           true
           (contains_sub m "flat-file error in entry 2 (line 7)")
       | Ok _ -> Alcotest.fail (Printf.sprintf "jobs=%d: expected failure" jobs));
      check Alcotest.int (Printf.sprintf "jobs=%d installs nothing" jobs) 0 docs)
    [ (1, n1, nd1); (4, n4, nd4) ]

(* ---------------- domain-safety stress ---------------- *)

let test_counter_atomicity () =
  let c = Rdb.Obs.Counter.create () in
  let t = Rdb.Obs.Timer.create () in
  let h = Rdb.Obs.Histogram.create () in
  let per_domain = 20_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Rdb.Obs.Counter.incr c;
              Rdb.Obs.Timer.add_s t 0.001;
              Rdb.Obs.Histogram.observe h 0.0005
            done))
  in
  List.iter Domain.join domains;
  check Alcotest.int "no lost counter increments" (4 * per_domain)
    (Rdb.Obs.Counter.value c);
  check Alcotest.int "no lost timer samples" (4 * per_domain)
    (Rdb.Obs.Timer.samples t);
  check Alcotest.int "no lost histogram observations" (4 * per_domain)
    (Rdb.Obs.Histogram.count h)

let stress_query =
  {|FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id|}

let test_multi_domain_queries () =
  (* several domains hammer the same warehouse through the cached engine
     path: results must all agree and cache bookkeeping must balance *)
  let wh = load_universe_at 1 in
  let reference =
    Conc.Pool.with_jobs 1 (fun () -> Xomatiq.Engine.run_text wh stress_query)
  in
  Xomatiq.Engine.cache_clear ();
  let per_domain = 25 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref 0 in
            for _ = 1 to per_domain do
              let r = Xomatiq.Engine.run_text wh stress_query in
              if r.Xomatiq.Engine.rows = reference.Xomatiq.Engine.rows then incr ok
            done;
            !ok))
  in
  let oks = List.map Domain.join domains in
  check Alcotest.(list int) "every concurrent run agrees"
    [ per_domain; per_domain; per_domain; per_domain ] oks;
  let hits, misses = Xomatiq.Engine.cache_stats () in
  check Alcotest.int "every lookup accounted for" (4 * per_domain) (hits + misses);
  check Alcotest.bool "at least one translation happened" true (misses >= 1);
  D.Warehouse.close wh

(* ---------------- the reactor ---------------- *)

let with_nb_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_reactor_readiness () =
  let r = Conc.Reactor.create () in
  Fun.protect ~finally:(fun () -> Conc.Reactor.close r) @@ fun () ->
  with_nb_socketpair @@ fun a b ->
  let fired = ref 0 in
  let drain fd =
    let buf = Bytes.create 64 in
    let rec go () =
      match Unix.read fd buf 0 64 with
      | n when n > 0 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    in
    go ()
  in
  Conc.Reactor.register r b ~read:true ~write:false (fun ev ->
      if ev.Conc.Reactor.readable then begin
        incr fired;
        drain b
      end);
  check Alcotest.int "registered" 1 (Conc.Reactor.registered r);
  (* quiet socket: the step times out without firing *)
  Conc.Reactor.step r ~timeout_s:0.02;
  check Alcotest.int "no spurious readiness" 0 !fired;
  ignore (Unix.write a (Bytes.of_string "x") 0 1);
  Conc.Reactor.step r ~timeout_s:2.;
  check Alcotest.int "read readiness fired" 1 !fired;
  (* interest off: bytes waiting do not fire the callback *)
  Conc.Reactor.want r b ~read:false ~write:false;
  ignore (Unix.write a (Bytes.of_string "y") 0 1);
  Conc.Reactor.step r ~timeout_s:0.02;
  check Alcotest.int "interest mask respected" 1 !fired;
  (* interest back on: the buffered byte fires immediately
     (level-triggered) *)
  Conc.Reactor.want r b ~read:true ~write:false;
  Conc.Reactor.step r ~timeout_s:2.;
  check Alcotest.int "level-triggered pickup" 2 !fired;
  Conc.Reactor.unregister r b;
  check Alcotest.int "unregistered" 0 (Conc.Reactor.registered r)

let test_reactor_post_wakes () =
  let r = Conc.Reactor.create () in
  Fun.protect ~finally:(fun () -> Conc.Reactor.close r) @@ fun () ->
  let ran = ref false in
  let poster =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Conc.Reactor.post r (fun () -> ran := true))
      ()
  in
  let t0 = Rdb.Obs.now_s () in
  (* would sleep 10 s if the post did not wake the poll *)
  Conc.Reactor.step r ~timeout_s:10.;
  let elapsed = Rdb.Obs.now_s () -. t0 in
  Thread.join poster;
  check Alcotest.bool "posted closure ran" true !ran;
  check Alcotest.bool
    (Printf.sprintf "post woke the poll (%.3fs)" elapsed)
    true (elapsed < 5.)

(* Readiness is captured before the step's posted closures and callbacks
   run, and any of those can close an fd whose number a later
   registration in the same step then reuses. The stale event must not
   be delivered to the new tenant: here the recycled descriptor is a
   fresh empty pipe, and a spurious "readable" would make a real server
   connection misread its peer. *)
let test_reactor_stale_event_not_delivered () =
  let r = Conc.Reactor.create () in
  Fun.protect ~finally:(fun () -> Conc.Reactor.close r) @@ fun () ->
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock b;
  let ghost_fired = ref 0 in
  let replacement = ref None in
  Conc.Reactor.register r b ~read:true ~write:false (fun _ -> ());
  (* make [b] readable so the next step captures its event ... *)
  ignore (Unix.write a (Bytes.of_string "!") 0 1);
  (* ... and have the posted closure (which runs after capture, before
     events fire) close [b] and register a pipe that reuses its number *)
  Conc.Reactor.post r (fun () ->
      Conc.Reactor.unregister r b;
      Unix.close b;
      let pr, pw = Unix.pipe () in
      Unix.set_nonblock pr;
      replacement := Some (pr, pw);
      Conc.Reactor.register r pr ~read:true ~write:false (fun _ ->
          incr ghost_fired));
  Conc.Reactor.step r ~timeout_s:2.;
  check Alcotest.int "no stale readiness for the recycled fd" 0 !ghost_fired;
  (match !replacement with
   | None -> Alcotest.fail "posted closure did not run"
   | Some (pr, pw) ->
     (* the freshly closed number is the lowest free one, so the pipe
        reuses it — without that the regression scenario never arises *)
     check Alcotest.bool "descriptor number was recycled" true (pr = b);
     (* genuine readiness on the new pipe still fires *)
     ignore (Unix.write pw (Bytes.of_string "?") 0 1);
     Conc.Reactor.step r ~timeout_s:2.;
     check Alcotest.int "real readiness fires" 1 !ghost_fired;
     Conc.Reactor.unregister r pr;
     (try Unix.close pr with Unix.Unix_error _ -> ());
     try Unix.close pw with Unix.Unix_error _ -> ());
  try Unix.close a with Unix.Unix_error _ -> ()

let test_wait_fd () =
  with_nb_socketpair @@ fun a b ->
  let t0 = Rdb.Obs.now_s () in
  (match Conc.Reactor.wait_fd b ~read:true ~write:false ~timeout_s:0.05 with
   | None -> ()
   | Some _ -> Alcotest.fail "readable without data");
  check Alcotest.bool "timeout respected" true (Rdb.Obs.now_s () -. t0 < 2.);
  ignore (Unix.write a (Bytes.of_string "z") 0 1);
  match Conc.Reactor.wait_fd b ~read:true ~write:false ~timeout_s:2. with
  | Some ev -> check Alcotest.bool "readable" true ev.Conc.Reactor.readable
  | None -> Alcotest.fail "data not seen"

(* The reason poll(2) replaced Unix.select: select is limited to
   descriptor numbers below FD_SETSIZE (1024), which any process holding
   ~1000 connections reaches. Push the fd numbering past 1024 and check
   readiness still works. *)
let test_poll_past_fd_setsize () =
  let eff = Conc.Reactor.raise_fd_limit 4096 in
  if eff < 2048 then
    Alcotest.skip ()
  else begin
    let hold =
      Array.init 1100 (fun _ ->
          Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0)
    in
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          hold)
      (fun () ->
        with_nb_socketpair @@ fun a b ->
        (match Conc.Reactor.wait_fd b ~read:true ~write:false ~timeout_s:0.02
         with
         | None -> ()
         | Some _ -> Alcotest.fail "readable without data (high fd)");
        ignore (Unix.write a (Bytes.of_string "!") 0 1);
        match
          Conc.Reactor.wait_fd b ~read:true ~write:false ~timeout_s:2.
        with
        | Some ev ->
          check Alcotest.bool "readable past FD_SETSIZE" true
            ev.Conc.Reactor.readable
        | None -> Alcotest.fail "data not seen on a high-numbered fd")
  end

(* ---------------- runner ---------------- *)

let () =
  Alcotest.run "concurrency"
    [ ( "pool",
        [ Alcotest.test_case "parallel_map order + size-1" `Quick test_parallel_map;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested submission (helping)" `Quick
            test_nested_submission;
          Alcotest.test_case "jobs controls" `Quick test_jobs_controls ] );
      ( "scheduler",
        [ Alcotest.test_case "plan-time cost gate" `Quick
            test_sched_plan_decisions;
          Alcotest.test_case "run-time idle gate (Pool.available)" `Quick
            test_pool_available;
          Alcotest.test_case "peek never spawns domains" `Quick test_pool_peek;
          Alcotest.test_case "EXPLAIN surfaces the decision" `Quick
            test_explain_sched_footer ] );
      ( "exchange",
        [ Alcotest.test_case "planner wraps big scans" `Quick test_exchange_plan;
          Alcotest.test_case "results identical at any jobs" `Quick
            test_exchange_results_identical ] );
      ( "data-hounds",
        [ Alcotest.test_case "parallel load byte-identical" `Quick
            test_parallel_harvest_identical;
          Alcotest.test_case "error positions identical" `Quick
            test_parallel_harvest_errors_identical ] );
      ( "reactor",
        [ Alcotest.test_case "readiness + interest masks" `Quick
            test_reactor_readiness;
          Alcotest.test_case "post wakes the poll" `Quick
            test_reactor_post_wakes;
          Alcotest.test_case "stale event for a recycled fd dropped" `Quick
            test_reactor_stale_event_not_delivered;
          Alcotest.test_case "single-fd wait" `Quick test_wait_fd;
          Alcotest.test_case "poll works past FD_SETSIZE" `Quick
            test_poll_past_fd_setsize ] );
      ( "domain-safety",
        [ Alcotest.test_case "atomic counters under contention" `Quick
            test_counter_atomicity;
          Alcotest.test_case "concurrent cached queries" `Quick
            test_multi_domain_queries ] ) ]
