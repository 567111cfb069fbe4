(* Concurrency in XomatiQ: the scheduler's inline/dispatch cost gate,
   the reactor, and domain-safety of the engine state that server and
   replication threads share (plan cache, Obs counters, catalog
   version). *)

let check = Alcotest.check

module D = Datahounds

let contains_sub s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---------------- the scheduler ---------------- *)

let test_sched_lanes () =
  let open Conc.Sched in
  check Alcotest.string "cheap query runs inline" "inline"
    (lane_name (lane ~est_cost:10.));
  check Alcotest.string "expensive query is dispatched" "dispatch"
    (lane_name (lane ~est_cost:1e9));
  (* the threshold is the exact boundary *)
  check Alcotest.string "cost at threshold is dispatched" "dispatch"
    (lane_name (lane ~est_cost:cost_threshold));
  check Alcotest.string "just below the threshold stays inline" "inline"
    (lane_name (lane ~est_cost:(Float.pred cost_threshold)))

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
  let explain sql =
    match Rdb.Database.explain db sql with
    | Ok p -> p
    | Error m -> failwith m
  in
  let cheap = explain "SELECT id FROM t WHERE id < 5" in
  check Alcotest.bool "cheap plan names the inline lane" true
    (contains_sub cheap "Scheduler: lane=inline est_cost=");
  let costly = explain "SELECT COUNT(1) FROM t a, t b, t c" in
  check Alcotest.bool "expensive plan names the dispatch lane" true
    (contains_sub costly "Scheduler: lane=dispatch est_cost=");
  List.iter
    (fun gone ->
      check Alcotest.bool (gone ^ " is gone from the footer") false
        (contains_sub cheap gone || contains_sub costly gone))
    [ "workers="; "sched="; "reason=" ]

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

let universe =
  Workload.Genbio.generate
    { Workload.Genbio.seed = 7; n_enzymes = 15; n_embl = 15; n_sprot = 12;
      n_citations = 8; cdc6_rate = 0.2; ketone_rate = 0.3; ec_link_rate = 0.7;
      seq_length = 40 }

let test_multi_domain_queries () =
  (* several domains hammer the same warehouse through the cached engine
     path: results must all agree and cache bookkeeping must balance *)
  let wh = D.Warehouse.create () in
  (match Workload.Genbio.load_universe wh universe with
   | Ok () -> ()
   | Error m -> failwith m);
  let reference = Xomatiq.Engine.run_text wh stress_query in
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
    [ ( "scheduler",
        [ Alcotest.test_case "plan-time cost gate" `Quick test_sched_lanes;
          Alcotest.test_case "EXPLAIN surfaces the decision" `Quick
            test_explain_sched_footer ] );
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
