(* The gRNA service layer end to end: wire framing, the in-process
   server's admission control, per-query timeouts, client CANCEL,
   graceful drain with WAL recovery, and the differential guarantee that
   N concurrent sessions see byte-identical results to sequential
   in-process execution. *)

let check = Alcotest.check
let fail = Alcotest.fail

module D = Datahounds
module P = Xserver.Protocol

(* ---------------- fixtures ---------------- *)

let universe_of seed =
  Workload.Genbio.generate
    { Workload.Genbio.seed; n_enzymes = 25; n_embl = 30; n_sprot = 25;
      n_citations = 15; cdc6_rate = 0.1; ketone_rate = 0.2; ec_link_rate = 0.8;
      seq_length = 50 }

let load_universe wh u =
  match Workload.Genbio.load_universe wh u with
  | Ok () -> ()
  | Error m -> failwith m

let with_warehouse seed f =
  let u = universe_of seed in
  let wh = D.Warehouse.create () in
  load_universe wh u;
  Fun.protect ~finally:(fun () -> D.Warehouse.close wh) (fun () -> f wh u)

(* An ephemeral-port in-process server, drained and joined on the way
   out — the same lifecycle `xomatiq serve` drives via SIGTERM. *)
let with_server ?(cfg = Xserver.Server.default_config) wh f =
  let cfg = { cfg with Xserver.Server.host = "127.0.0.1"; port = 0 } in
  let t = Xserver.Server.start cfg wh in
  Fun.protect
    ~finally:(fun () ->
      Xserver.Server.request_stop t;
      Xserver.Server.wait t)
    (fun () -> f t (Xserver.Server.port t))

let connect ?timeout_s port =
  Xserver.Client.connect ?timeout_s ~retry_for_s:2. ~port ()

(* Three nested scans over xml_node: far too slow to ever finish on this
   fixture, so only cancellation can end it. *)
let slow_sql = "SELECT COUNT(1) FROM xml_node a, xml_node b, xml_node c"

let simple_query =
  "FOR $e IN document(\"hlx_enzyme.DEFAULT\") RETURN \
   $e/hlx_enzyme/db_entry/enzyme_id"

(* ---------------- framing ---------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair @@ fun a b ->
  let payloads =
    [ ""; "x"; "hello world"; String.make 100_000 'q';
      String.init 512 (fun i -> Char.chr (i mod 256)) ]
  in
  List.iter
    (fun payload ->
      P.write_frame a P.tag_query payload;
      let tag, got = P.read_frame ~deadline:(Rdb.Obs.now_s () +. 5.) b in
      check Alcotest.char "tag" P.tag_query tag;
      check Alcotest.string "payload" payload got)
    payloads;
  (* several frames buffered back to back arrive in order, intact *)
  List.iteri (fun i p -> P.write_frame a (Char.chr (65 + i)) p) payloads;
  List.iteri
    (fun i p ->
      let tag, got = P.read_frame ~deadline:(Rdb.Obs.now_s () +. 5.) b in
      check Alcotest.char "pipelined tag" (Char.chr (65 + i)) tag;
      check Alcotest.string "pipelined payload" p got)
    payloads

let test_frame_oversized () =
  with_socketpair @@ fun a b ->
  P.write_frame a P.tag_query (String.make 4096 'z');
  (match P.read_frame ~deadline:(Rdb.Obs.now_s () +. 5.) ~max_frame:1024 b with
   | _ -> fail "oversized frame accepted"
   | exception P.Proto_error _ -> ())

let test_frame_truncated () =
  (* header promises 100 bytes but the peer dies after 10 *)
  with_socketpair (fun a b ->
      let partial = Bytes.create 15 in
      Bytes.set partial 0 P.tag_query;
      Bytes.set_int32_be partial 1 100l;
      let n = Unix.write a partial 0 15 in
      check Alcotest.int "partial write" 15 n;
      Unix.close a;
      match P.read_frame ~deadline:(Rdb.Obs.now_s () +. 5.) b with
      | _ -> fail "truncated frame accepted"
      | exception P.Proto_error _ -> ());
  (* a clean close at a frame boundary is Closed, not an error *)
  with_socketpair (fun a b ->
      Unix.close a;
      match P.read_frame ~deadline:(Rdb.Obs.now_s () +. 5.) b with
      | _ -> fail "read from closed peer"
      | exception P.Closed -> ())

let test_frame_read_deadline () =
  with_socketpair @@ fun _a b ->
  match P.read_frame ~deadline:(Rdb.Obs.now_s () +. 0.05) b with
  | _ -> fail "read without data"
  | exception P.Io_timeout -> ()

let test_summary_roundtrip () =
  List.iter
    (fun s ->
      let s' = P.parse_done_payload (P.done_payload s) in
      check Alcotest.int "rows" s.P.sum_rows s'.P.sum_rows;
      check Alcotest.bool "cached" s.P.sum_cached s'.P.sum_cached;
      check (Alcotest.float 0.001) "exec_ms" s.P.sum_exec_ms s'.P.sum_exec_ms;
      check Alcotest.int "seq" s.P.sum_seq s'.P.sum_seq)
    [ { P.sum_rows = 0; sum_exec_ms = 0.; sum_cached = false; sum_seq = 0 };
      { P.sum_rows = 12345; sum_exec_ms = 17.25; sum_cached = true;
        sum_seq = 42 } ];
  let code, msg = P.parse_error_payload (P.error_payload ~code:"TIMEOUT" "too slow") in
  check Alcotest.string "error code" "TIMEOUT" code;
  check Alcotest.string "error message" "too slow" msg

(* ---------------- incremental decoding ---------------- *)

let frame_string tag payload =
  let len = String.length payload in
  let b = Bytes.create (5 + len) in
  Bytes.set b 0 tag;
  Bytes.set_int32_be b 1 (Int32.of_int len);
  Bytes.blit_string payload 0 b 5 len;
  Bytes.to_string b

let decoder_frames =
  [ (P.tag_query, "hello"); (P.tag_ok, ""); (P.tag_rows, String.make 10_000 'r');
    (P.tag_done, "rows=1 exec_ms=0.5 cache_hit=0"); (P.tag_bye, "") ]

(* Feed the same wire bytes cut at different points; the decoded frame
   sequence must be identical to whole-frame delivery. *)
let collect_decoded ?max_frame chunks =
  let d = P.Decoder.create ?max_frame () in
  let out = ref [] in
  List.iter
    (fun chunk ->
      P.Decoder.feed_string d chunk;
      let rec drain () =
        match P.Decoder.next d with
        | Some f ->
          out := f :: !out;
          drain ()
        | None -> ()
      in
      drain ())
    chunks;
  (List.rev !out, d)

let check_frames what got =
  check Alcotest.int (what ^ ": frame count") (List.length decoder_frames)
    (List.length got);
  List.iter2
    (fun (wtag, wpay) (gtag, gpay) ->
      check Alcotest.char (what ^ ": tag") wtag gtag;
      check Alcotest.string (what ^ ": payload") wpay gpay)
    decoder_frames got

let test_decoder_split_points () =
  let wire =
    String.concat "" (List.map (fun (t, p) -> frame_string t p) decoder_frames)
  in
  (* everything in one feed: frames pipelined back to back *)
  let whole, d = collect_decoded [ wire ] in
  check_frames "one read" whole;
  check Alcotest.int "buffer fully consumed" 0 (P.Decoder.buffered d);
  (* one byte at a time *)
  let dribble, _ =
    collect_decoded (List.init (String.length wire) (fun i -> String.sub wire i 1))
  in
  check_frames "byte at a time" dribble;
  (* frames split across reads at every header/payload boundary flavor *)
  List.iter
    (fun cut ->
      let parts =
        [ String.sub wire 0 cut; String.sub wire cut (String.length wire - cut) ]
      in
      check_frames
        (Printf.sprintf "split at %d" cut)
        (fst (collect_decoded parts)))
    [ 1; 3; 5; 7; 12; String.length wire - 2 ]

let test_decoder_oversized_midstream () =
  (* a well-formed frame, then a header announcing an oversized payload:
     the good frame decodes, the bad header is rejected from its 5 bytes
     alone — exactly the whole-frame reader's behavior *)
  let d = P.Decoder.create ~max_frame:1024 () in
  P.Decoder.feed_string d (frame_string P.tag_query "fine");
  (match P.Decoder.next d with
   | Some (tag, payload) ->
     check Alcotest.char "good tag" P.tag_query tag;
     check Alcotest.string "good payload" "fine" payload
   | None -> fail "complete frame not decoded");
  let bad_header = Bytes.create 5 in
  Bytes.set bad_header 0 P.tag_query;
  Bytes.set_int32_be bad_header 1 100_000l;
  P.Decoder.feed_string d (Bytes.to_string bad_header);
  (match P.Decoder.next d with
   | _ -> fail "oversized frame accepted by decoder"
   | exception P.Proto_error _ -> ());
  (* the whole-frame reader rejects the same bytes the same way *)
  with_socketpair @@ fun a b ->
  ignore (Unix.write a bad_header 0 5);
  match P.read_frame ~deadline:(Rdb.Obs.now_s () +. 5.) ~max_frame:1024 b with
  | _ -> fail "oversized frame accepted by read_frame"
  | exception P.Proto_error _ -> ()

(* ---------------- descriptor hygiene ---------------- *)

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A rejected handshake must not leak a descriptor on the server side:
   hammer the server with bad HELLOs and check the process fd table
   returns to its baseline. *)
let test_rejected_hello_no_server_fd_leak () =
  with_warehouse 7 @@ fun wh _u ->
  with_server wh @@ fun _t port ->
  let attempt () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        P.write_frame fd P.tag_hello "bogus/999";
        match P.read_frame ~deadline:(Rdb.Obs.now_s () +. 5.) fd with
        | tag, payload when tag = P.tag_error ->
          let code, _ = P.parse_error_payload payload in
          check Alcotest.string "rejection is typed" P.err_proto code
        | tag, _ -> fail (Printf.sprintf "expected error frame, got %C" tag))
  in
  attempt ();  (* warm up any lazily created plumbing first *)
  Thread.delay 0.2;
  let baseline = count_fds () in
  for _ = 1 to 20 do
    attempt ()
  done;
  (* give the server a few loop slices to close its halves *)
  let give_up = Rdb.Obs.now_s () +. 3. in
  while count_fds () > baseline && Rdb.Obs.now_s () < give_up do
    Thread.delay 0.05
  done;
  check Alcotest.bool
    (Printf.sprintf "server fds back to baseline (%d -> %d)" baseline
       (count_fds ()))
    true
    (count_fds () <= baseline)

(* ... and not on the client side either: a server that rejects the
   handshake (SERVER_BUSY at the door) must leave no descriptor behind
   in the client process, even across a long busy-retry loop. *)
let test_rejected_handshake_no_client_fd_leak () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 16;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let stop = Atomic.make false in
  let rejector =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.accept lfd with
          | fd, _ ->
            (try ignore (P.read_frame ~deadline:(Rdb.Obs.now_s () +. 1.) fd)
             with _ -> ());
            (try
               P.write_frame fd P.tag_error
                 (P.error_payload ~code:P.err_busy "always full")
             with _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ())
          | exception Unix.Unix_error _ -> ()
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (* unblock the accept *)
      (try
         let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
         (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
          with Unix.Unix_error _ -> ());
         Unix.close fd
       with Unix.Unix_error _ -> ());
      Thread.join rejector;
      try Unix.close lfd with Unix.Unix_error _ -> ())
    (fun () ->
      let reject () =
        match Xserver.Client.connect ~port () with
        | c ->
          Xserver.Client.close c;
          fail "rejecting server admitted a client"
        | exception Xserver.Client.Server_error (code, _) ->
          check Alcotest.string "busy code" P.err_busy code
      in
      reject ();  (* warm-up *)
      let baseline = count_fds () in
      for _ = 1 to 20 do
        reject ()
      done;
      check Alcotest.bool
        (Printf.sprintf "client fds back to baseline (%d -> %d)" baseline
           (count_fds ()))
        true
        (count_fds () <= baseline))

(* ---------------- busy-retry jitter ---------------- *)

let test_backoff_jitter () =
  let base = 0.2 in
  check (Alcotest.float 1e-9) "lower edge is base/2" 0.1
    (Xserver.Client.jittered_delay ~rand:0. base);
  check (Alcotest.float 1e-9) "upper edge is base" 0.2
    (Xserver.Client.jittered_delay ~rand:1. base);
  (* distinct draws spread the retries across [base/2, base] instead of
     re-synchronizing every shed client on the same ladder *)
  let delays =
    List.init 16 (fun i ->
        Xserver.Client.jittered_delay ~rand:(float_of_int i /. 16.) base)
  in
  List.iter
    (fun d -> check Alcotest.bool "within [base/2, base]" true (d >= 0.1 && d <= 0.2))
    delays;
  let spread = List.fold_left max 0. delays -. List.fold_left min 1e9 delays in
  check Alcotest.bool
    (Printf.sprintf "delays are spread (%.3fs)" spread)
    true (spread > 0.05)

(* ---------------- basic request/response ---------------- *)

let test_server_basics () =
  with_warehouse 7 @@ fun wh _u ->
  with_server wh @@ fun _t port ->
  let c = connect port in
  Fun.protect ~finally:(fun () -> Xserver.Client.close c) @@ fun () ->
  check Alcotest.string "ping echoes" "pong?" (Xserver.Client.ping c "pong?");
  (* a query matches the in-process rendering byte for byte *)
  let body, summary = Xserver.Client.query c simple_query in
  let expected =
    Xomatiq.Engine.result_to_table (Xomatiq.Engine.run_text wh simple_query)
  in
  check Alcotest.string "query body" expected body;
  check Alcotest.bool "row count plausible" true (summary.P.sum_rows > 0);
  (* SQL and EXPLAIN flow through the same stream *)
  let sql_body, sql_summary =
    Xserver.Client.sql c "SELECT COUNT(1) FROM xml_node"
  in
  check Alcotest.bool "sql returns one row" true (sql_summary.P.sum_rows = 1);
  check Alcotest.bool "sql body mentions count" true
    (String.length sql_body > 0);
  let plan = Xserver.Client.explain c simple_query in
  check Alcotest.bool "explain shows SQL + plan" true
    (String.length plan > 0);
  (* a failing query is a typed error and the connection survives *)
  (match Xserver.Client.query c "FOR $x IN nonsense RETURN $x" with
   | _ -> fail "bad query accepted"
   | exception Xserver.Client.Server_error (code, _) ->
     check Alcotest.string "query error code" P.err_query code);
  check Alcotest.string "usable after error" "still here"
    (Xserver.Client.ping c "still here");
  (* session options shape results: xml format *)
  ignore (Xserver.Client.set_option c ~name:"format" ~value:"xml");
  let xml_body, _ = Xserver.Client.query c simple_query in
  check Alcotest.bool "xml rendering" true
    (String.length xml_body >= 5 && String.sub xml_body 0 5 = "<?xml");
  (* metrics snapshot is present and mentions the server counters *)
  let metrics = Xserver.Client.metrics c in
  let has needle =
    let nlen = String.length needle and mlen = String.length metrics in
    let rec go i =
      i + nlen <= mlen && (String.sub metrics i nlen = needle || go (i + 1))
    in
    go 0
  in
  check Alcotest.bool "metrics has server.queries" true
    (has "\"server.queries\"");
  check Alcotest.bool "metrics has session info" true (has "\"session\"");
  (* plan-cache hit flag: the second identical run is served cached *)
  let _, s1 = Xserver.Client.query c simple_query in
  let _, s2 = Xserver.Client.query c simple_query in
  ignore s1;
  check Alcotest.bool "repeat query hits the plan cache" true s2.P.sum_cached

let test_bad_set_option () =
  with_warehouse 7 @@ fun wh _u ->
  with_server wh @@ fun _t port ->
  let c = connect port in
  Fun.protect ~finally:(fun () -> Xserver.Client.close c) @@ fun () ->
  (match Xserver.Client.set_option c ~name:"strategy" ~value:"psychic" with
   | _ -> fail "bad strategy accepted"
   | exception Xserver.Client.Server_error _ -> ());
  (* there is no worker setting: [jobs] is an unknown option *)
  (match Xserver.Client.set_option c ~name:"jobs" ~value:"2" with
   | _ -> fail "jobs option accepted"
   | exception Xserver.Client.Server_error (_, m) ->
     check Alcotest.bool ("unknown option: " ^ m) true
       (String.length m >= 14 && String.sub m 0 14 = "unknown option"));
  check Alcotest.string "usable after rejected option" "ok"
    (Xserver.Client.ping c "ok")

(* ---------------- admission control ---------------- *)

let test_server_busy () =
  with_warehouse 7 @@ fun wh _u ->
  let cfg =
    { Xserver.Server.default_config with max_clients = 1; queue_depth = 0 }
  in
  with_server ~cfg wh @@ fun _t port ->
  let c1 = connect port in
  (* the only slot is taken: the next connection is shed at the door *)
  (match Xserver.Client.connect ~port () with
   | c2 -> Xserver.Client.close c2; fail "second client admitted"
   | exception Xserver.Client.Server_error (code, _) ->
     check Alcotest.string "shed code" P.err_busy code
   | exception (P.Closed | Unix.Unix_error _) ->
     fail "shed without a typed SERVER_BUSY frame");
  check Alcotest.string "first client unaffected" "alive"
    (Xserver.Client.ping c1 "alive");
  Xserver.Client.close c1;
  (* the freed slot re-admits: retry until the handler releases it *)
  let rec readmit tries =
    match Xserver.Client.connect ~port () with
    | c3 -> Xserver.Client.close c3
    | exception Xserver.Client.Server_error _ when tries > 0 ->
      Thread.delay 0.05;
      readmit (tries - 1)
  in
  readmit 100

(* A full wait queue parked in acquire_slot is woken by request_stop
   itself — not only by [wait]'s later broadcast — so a drain turns the
   whole line away promptly even before the accept thread is joined. *)
let test_drain_wakes_wait_queue () =
  with_warehouse 7 @@ fun wh _u ->
  let cfg =
    { Xserver.Server.default_config with
      host = "127.0.0.1"; port = 0; max_clients = 1; queue_depth = 4 }
  in
  let t = Xserver.Server.start cfg wh in
  let port = Xserver.Server.port t in
  let c1 = connect port in
  let n = 3 in
  let outcomes = Array.make n None in
  let waiter i () =
    outcomes.(i) <-
      Some
        (match Xserver.Client.connect ~timeout_s:10. ~port () with
         | c -> Xserver.Client.close c; "admitted"
         | exception Xserver.Client.Server_error (code, _) -> code
         | exception P.Closed -> "closed"
         | exception e -> Printexc.to_string e)
  in
  let threads = List.init n (fun i -> Thread.create (waiter i) ()) in
  Thread.delay 0.3;  (* let all three park in the wait queue *)
  Xserver.Server.request_stop t;
  (* the broadcast in request_stop must be enough: poll the outcomes
     without calling [wait] (whose own broadcast would mask the bug) *)
  let give_up = Rdb.Obs.now_s () +. 3. in
  let all_done () = Array.for_all Option.is_some outcomes in
  while (not (all_done ())) && Rdb.Obs.now_s () < give_up do
    Thread.delay 0.02
  done;
  check Alcotest.bool "wait queue woken by request_stop alone" true
    (all_done ());
  List.iter Thread.join threads;
  Array.iteri
    (fun i o ->
      match o with
      | Some code when code = P.err_shutdown || code = "closed" -> ()
      | Some other ->
        fail (Printf.sprintf "waiter %d: expected %s, got %s" i
                P.err_shutdown other)
      | None -> fail (Printf.sprintf "waiter %d still parked" i))
    outcomes;
  Xserver.Client.close c1;
  Xserver.Server.wait t

(* ---------------- timeouts and cancellation ---------------- *)

let test_query_timeout () =
  with_warehouse 7 @@ fun wh _u ->
  let cfg =
    { Xserver.Server.default_config with query_timeout_s = Some 0.3 }
  in
  with_server ~cfg wh @@ fun _t port ->
  let c = connect ~timeout_s:30. port in
  Fun.protect ~finally:(fun () -> Xserver.Client.close c) @@ fun () ->
  let t0 = Rdb.Obs.now_s () in
  (match Xserver.Client.sql c slow_sql with
   | _ -> fail "runaway query finished"
   | exception Xserver.Client.Server_error (code, _) ->
     check Alcotest.string "timeout code" P.err_timeout code);
  check Alcotest.bool "canceled within ~5s of a 0.3s budget" true
    (Rdb.Obs.now_s () -. t0 < 5.);
  (* the session survives a timed-out query *)
  check Alcotest.string "usable after timeout" "ok" (Xserver.Client.ping c "ok");
  let _, s = Xserver.Client.query c simple_query in
  check Alcotest.bool "real query still works" true (s.P.sum_rows > 0)

let test_client_cancel () =
  with_warehouse 7 @@ fun wh _u ->
  with_server wh @@ fun _t port ->
  let c = connect ~timeout_s:30. port in
  Fun.protect ~finally:(fun () -> Xserver.Client.close c) @@ fun () ->
  Xserver.Client.send_raw c P.tag_sql slow_sql;
  Thread.delay 0.2;
  Xserver.Client.send_raw c P.tag_cancel "";
  (match Xserver.Client.read_raw c with
   | tag, payload when tag = P.tag_error ->
     let code, _ = P.parse_error_payload payload in
     check Alcotest.string "cancel code" P.err_canceled code
   | tag, _ -> fail (Printf.sprintf "expected error frame, got %C" tag));
  check Alcotest.string "usable after cancel" "ok" (Xserver.Client.ping c "ok")

(* An expensive query is dispatched off the reactor thread whatever the
   host's core count: while connection A runs a runaway cross product,
   connection B is still served promptly, and a CANCEL on A still
   reaches the running query. Were the query run on the reactor thread,
   B's PING would wait for A's 3 s deadline. *)
let test_slow_query_leaves_reactor_free () =
  with_warehouse 7 @@ fun wh _u ->
  let cfg =
    { Xserver.Server.default_config with query_timeout_s = Some 3. }
  in
  with_server ~cfg wh @@ fun _t port ->
  let a = connect ~timeout_s:30. port in
  Fun.protect ~finally:(fun () -> Xserver.Client.close a) @@ fun () ->
  let b = connect ~timeout_s:30. port in
  Fun.protect ~finally:(fun () -> Xserver.Client.close b) @@ fun () ->
  Xserver.Client.send_raw a P.tag_sql slow_sql;
  Thread.delay 0.2;
  let t0 = Rdb.Obs.now_s () in
  check Alcotest.string "B answered" "b" (Xserver.Client.ping b "b");
  let waited = Rdb.Obs.now_s () -. t0 in
  check Alcotest.bool
    (Printf.sprintf "B's PING answered within 1 s (%.2fs)" waited)
    true (waited < 1.);
  Xserver.Client.send_raw a P.tag_cancel "";
  match Xserver.Client.read_raw a with
  | tag, payload when tag = P.tag_error ->
    let code, _ = P.parse_error_payload payload in
    check Alcotest.string "A's query canceled" P.err_canceled code
  | tag, _ -> fail (Printf.sprintf "expected error frame, got %C" tag)

(* The idle reaper only ticks between requests — a query that runs past
   the idle deadline completes in full (no mid-ROWS-frame close), the
   session survives it, and only subsequent inactivity reaps it. *)
let test_idle_reaper_vs_slow_query () =
  with_warehouse 7 @@ fun wh _u ->
  let cfg =
    { Xserver.Server.default_config with idle_timeout_s = Some 0.4 }
  in
  with_server ~cfg wh @@ fun _t port ->
  let c = connect ~timeout_s:30. port in
  Fun.protect ~finally:(fun () -> Xserver.Client.close c) @@ fun () ->
  (* a cross join sized to outlive the 0.4s idle budget but finish *)
  let slow_but_finite =
    "SELECT COUNT(1) FROM xml_node a, xml_node b WHERE a.node_id <= 400"
  in
  let t0 = Rdb.Obs.now_s () in
  let _, s = Xserver.Client.sql c slow_but_finite in
  let elapsed = Rdb.Obs.now_s () -. t0 in
  check Alcotest.bool
    (Printf.sprintf "query outlived the idle budget (%.2fs)" elapsed) true
    (elapsed > 0.4);
  check Alcotest.int "aggregate arrived whole" 1 s.P.sum_rows;
  (* the reaper did not close the session mid-query *)
  check Alcotest.string "alive right after a slow query" "ok"
    (Xserver.Client.ping c "ok");
  (* true inactivity is still reaped, with a typed goodbye *)
  Thread.delay 0.8;
  match Xserver.Client.ping c "anyone?" with
  | _ -> fail "idle session survived the reaper"
  | exception Xserver.Client.Server_error (code, _) ->
    check Alcotest.string "idle code" P.err_idle code
  | exception (P.Closed | P.Io_timeout | Unix.Unix_error _) -> ()

(* connect ~busy_retry_for_s keeps knocking while the server sheds, and
   is admitted once a slot frees — batch scripts no longer hard-fail. *)
let test_busy_retry () =
  with_warehouse 7 @@ fun wh _u ->
  let cfg =
    { Xserver.Server.default_config with max_clients = 1; queue_depth = 0 }
  in
  with_server ~cfg wh @@ fun _t port ->
  let c1 = connect port in
  (* without a retry budget the shed is immediate and final *)
  (match Xserver.Client.connect ~port () with
   | c2 -> Xserver.Client.close c2; fail "admitted without a free slot"
   | exception Xserver.Client.Server_error (code, _) ->
     check Alcotest.string "immediate shed" P.err_busy code);
  (* free the slot mid-retry: the patient connect gets in *)
  let releaser = Thread.create (fun () ->
      Thread.delay 0.4;
      Xserver.Client.close c1) ()
  in
  (match Xserver.Client.connect ~busy_retry_for_s:5. ~port () with
   | c3 ->
     check Alcotest.string "usable after busy retry" "in"
       (Xserver.Client.ping c3 "in");
     Xserver.Client.close c3
   | exception Xserver.Client.Server_error (code, m) ->
     fail (Printf.sprintf "busy retry gave up: %s %s" code m));
  Thread.join releaser

(* ---------------- graceful drain ---------------- *)

let with_temp_wal f =
  let path = Filename.temp_file "xomatiq_srv" ".wal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_graceful_drain () =
  with_temp_wal @@ fun wal ->
  let u = universe_of 7 in
  let wh = D.Warehouse.create ~wal () in
  load_universe wh u;
  let expected =
    Xomatiq.Engine.result_to_table (Xomatiq.Engine.run_text wh simple_query)
  in
  let cfg =
    { Xserver.Server.default_config with host = "127.0.0.1"; port = 0 }
  in
  let t = Xserver.Server.start cfg wh in
  let port = Xserver.Server.port t in
  let c = connect port in
  let body, _ = Xserver.Client.query c simple_query in
  check Alcotest.string "pre-drain query" expected body;
  (* drain while the client is connected: it gets a typed SHUTTING_DOWN
     (or a clean close) — never a partial frame *)
  Xserver.Server.request_stop t;
  (match Xserver.Client.query c simple_query with
   | body, _ ->
     (* the request squeaked in before the session noticed the drain *)
     check Alcotest.string "in-flight query still whole" expected body
   | exception Xserver.Client.Server_error (code, _) ->
     check Alcotest.string "drain code" P.err_shutdown code
   | exception (P.Closed | Unix.Unix_error _) -> ()
   | exception P.Proto_error m -> fail ("partial frame during drain: " ^ m));
  Xserver.Server.wait t;
  Xserver.Client.close c;
  (* new connections are refused once drained *)
  (match Xserver.Client.connect ~port () with
   | c2 -> Xserver.Client.close c2; fail "connected after drain"
   | exception (Unix.Unix_error _ | Xserver.Client.Server_error _ | P.Closed) ->
     ());
  D.Warehouse.close wh;
  (* the WAL replays: same collections, same query answer *)
  let wh2 = D.Warehouse.create ~wal () in
  Fun.protect ~finally:(fun () -> D.Warehouse.close wh2) @@ fun () ->
  check Alcotest.bool "collections recovered" true
    (List.mem "hlx_enzyme.DEFAULT" (D.Warehouse.collections wh2));
  check Alcotest.string "query answer recovered" expected
    (Xomatiq.Engine.result_to_table (Xomatiq.Engine.run_text wh2 simple_query))

(* ---------------- xomatiq/1 pipelining ---------------- *)

let test_pipelined_queries () =
  with_warehouse 23 @@ fun wh u ->
  let mix = Workload.Query_mix.mixed ~seed:23 ~universe:u ~per_class:2 in
  let texts = List.map snd mix in
  let expected =
    List.map
      (fun t -> Xomatiq.Engine.result_to_table (Xomatiq.Engine.run_text wh t))
      texts
  in
  with_server wh @@ fun _t port ->
  let c = connect port in
  Fun.protect ~finally:(fun () -> Xserver.Client.close c) @@ fun () ->
  (* a full mix pipelined W=8: responses in request order, byte-identical
     to the sequential in-process rendering *)
  List.iter2
    (fun want -> function
      | Ok (body, _) -> check Alcotest.string "pipelined body" want body
      | Error (code, m) ->
        fail (Printf.sprintf "pipelined query failed: [%s] %s" code m))
    expected
    (Xserver.Client.query_pipelined ~window:8 c texts);
  (* a mid-batch error stays in its slot; neighbours are untouched *)
  let simple_expected =
    Xomatiq.Engine.result_to_table (Xomatiq.Engine.run_text wh simple_query)
  in
  (match
     Xserver.Client.query_pipelined ~window:4 c
       [ simple_query; "FOR $x IN nonsense RETURN $x"; simple_query ]
   with
   | [ Ok (b1, _); Error (code, _); Ok (b2, _) ] ->
     check Alcotest.string "error slot typed" P.err_query code;
     check Alcotest.string "frame before the error whole" simple_expected b1;
     check Alcotest.string "frame after the error whole" simple_expected b2
   | rs -> fail (Printf.sprintf "unexpected result shape (%d)" (List.length rs)));
  (* CANCEL with nothing queued or in flight is an acknowledged no-op *)
  Xserver.Client.send_raw c P.tag_cancel "";
  (match Xserver.Client.read_raw c with
   | tag, _ when tag = P.tag_ok -> ()
   | tag, _ -> fail (Printf.sprintf "expected OK for idle CANCEL, got %C" tag));
  check Alcotest.string "usable after pipelined batches" "ok"
    (Xserver.Client.ping c "ok")

(* A burst past the server's pipeline window must be answered in full.
   Once read, the surplus frames live in the server's userspace decoder
   — the kernel socket buffer is empty, so no further readable event
   will ever deliver them; the server has to keep draining the decoder
   as window slots free up (regression: the surplus used to sit
   undecoded forever, hanging the connection). *)
let test_pipelined_burst_over_window () =
  with_warehouse 11 @@ fun wh _u ->
  let cfg =
    { Xserver.Server.default_config with Xserver.Server.pipeline_window = 4 }
  in
  with_server ~cfg wh @@ fun _t port ->
  let c = connect port in
  Fun.protect ~finally:(fun () -> Xserver.Client.close c) @@ fun () ->
  let blast frames =
    (* one coalesced write, so the whole burst can land in few read()s *)
    let out = P.Outbuf.create () in
    List.iter (fun p -> P.Outbuf.add_frame out P.tag_ping p) frames;
    let rec push () =
      match P.Outbuf.flush out (Xserver.Client.fd c) with
      | `All -> ()
      | `Blocked ->
        P.wait_writable (Xserver.Client.fd c)
          ~deadline:(Rdb.Obs.now_s () +. 10.);
        push ()
    in
    push ()
  in
  let expect_echoes frames =
    List.iteri
      (fun i want ->
        let tag, got = Xserver.Client.read_raw c in
        check Alcotest.char (Printf.sprintf "burst reply %d tag" i) P.tag_ok
          tag;
        check Alcotest.bool (Printf.sprintf "burst reply %d in order" i) true
          (got = want))
      frames
  in
  (* 23 PINGs in one write against a window of 4 *)
  let small = List.init 23 (fun i -> Printf.sprintf "burst-%d" i) in
  blast small;
  expect_echoes small;
  (* frames larger than the decoder backlog cap (256 KiB), with echoes
     that pile past the outbuf high-water mark: the server must keep
     reading through a partial frame however large the backlog counter
     says it is, and must resume execution each time a flush drains the
     response buffer *)
  let big = List.init 6 (fun i -> String.make 300_000 (Char.chr (97 + i))) in
  blast big;
  expect_echoes big;
  check Alcotest.string "usable after bursts" "ok" (Xserver.Client.ping c "ok")

(* ---------------- idle-connection soak ---------------- *)

let proc_status_int field =
  let ic = open_in "/proc/self/status" in
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

(* 500 connections sit idle while one active client runs the 3-seed
   differential mix: results stay byte-identical, and the idle herd
   costs neither threads (the reactor owns every socket) nor unbounded
   memory (~12 KiB of buffers per connection). *)
let test_idle_connection_soak () =
  ignore (Conc.Reactor.raise_fd_limit 8192);
  with_warehouse 11 @@ fun wh u ->
  let cfg =
    { Xserver.Server.default_config with max_clients = 600; queue_depth = 8 }
  in
  with_server ~cfg wh @@ fun _t port ->
  let n_idle = 500 in
  let threads_before = proc_status_int "Threads:" in
  let rss_before = proc_status_int "VmRSS:" in
  let idle = Array.init n_idle (fun _ -> connect port) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun c -> try Xserver.Client.close c with _ -> ())
        idle)
    (fun () ->
      let threads_after = proc_status_int "Threads:" in
      check Alcotest.bool
        (Printf.sprintf "threads do not scale with idle connections (%d -> %d)"
           threads_before threads_after)
        true
        (threads_after - threads_before <= 2);
      let rss_after = proc_status_int "VmRSS:" in
      check Alcotest.bool
        (Printf.sprintf "%d idle connections cost < 100 MB RSS (+%d kB)" n_idle
           (rss_after - rss_before))
        true
        (rss_after - rss_before < 100 * 1024);
      let c = connect ~timeout_s:60. port in
      Fun.protect ~finally:(fun () -> Xserver.Client.close c) @@ fun () ->
      List.iter
        (fun seed ->
          let mix = Workload.Query_mix.mixed ~seed ~universe:u ~per_class:1 in
          List.iter
            (fun (_cls, text) ->
              let want =
                Xomatiq.Engine.result_to_table (Xomatiq.Engine.run_text wh text)
              in
              let body, _ = Xserver.Client.query c text in
              if body <> want then
                fail
                  (Printf.sprintf
                     "active client diverged under idle load (seed %d): %s" seed
                     text))
            mix)
        [ 11; 23; 47 ];
      (* the idle herd survived the active phase *)
      check Alcotest.string "idle connection still alive" "hi"
        (Xserver.Client.ping idle.(n_idle / 2) "hi"))

(* ---------------- differential: concurrent = sequential ---------------- *)

(* Eight concurrent sessions, alternating contains-strategies, each
   running the full workload mix — every response must be byte-identical
   to the sequential in-process rendering computed up front, with cheap
   queries inline and session-memoized preparations — and likewise with
   xomatiq/1 pipelining ([pipelined] sends each session's mix W=8 at a
   time). *)
let run_concurrent_differential ?(pipelined = false) seed () =
  with_warehouse seed @@ fun wh u ->
  let mix = Workload.Query_mix.mixed ~seed ~universe:u ~per_class:2 in
  let strategies = [ ("keyword", `Keyword_index); ("like", `Like_scan) ] in
  let expected =
    List.map
      (fun (sname, strategy) ->
        ( sname,
          List.map
            (fun (_cls, text) ->
              ( text,
                Xomatiq.Engine.result_to_table
                  (Xomatiq.Engine.run_text ~contains_strategy:strategy wh text)
              ))
            mix ))
      strategies
  in
  with_server wh @@ fun _t port ->
  let n_clients = 8 in
  let failures = Array.make n_clients None in
  let worker i () =
    try
      let sname, _ = List.nth strategies (i mod 2) in
      let c = connect ~timeout_s:60. port in
      Fun.protect ~finally:(fun () -> Xserver.Client.close c) @@ fun () ->
      if sname <> "keyword" then
        ignore (Xserver.Client.set_option c ~name:"strategy" ~value:sname);
      let items = List.assoc sname expected in
      if pipelined then
        List.iter2
          (fun (text, want) -> function
            | Ok (body, _) ->
              if body <> want then
                failwith
                  (Printf.sprintf
                     "client %d (%s strategy, pipelined): diverged on %s" i
                     sname text)
            | Error (code, m) ->
              failwith
                (Printf.sprintf "client %d pipelined error on %s: [%s] %s" i
                   text code m))
          items
          (Xserver.Client.query_pipelined ~window:8 c (List.map fst items))
      else
        List.iter
          (fun (text, want) ->
            let body, _ = Xserver.Client.query c text in
            if body <> want then
              failwith
                (Printf.sprintf
                   "client %d (%s strategy): server result diverged on %s" i
                   sname text))
          items
    with e -> failures.(i) <- Some (Printexc.to_string e)
  in
  let threads = List.init n_clients (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  Array.iteri
    (fun i -> function
      | Some m -> fail (Printf.sprintf "client %d failed: %s" i m)
      | None -> ())
    failures

let () =
  Alcotest.run "server"
    [ ( "framing",
        [ Alcotest.test_case "round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "oversized frame rejected" `Quick
            test_frame_oversized;
          Alcotest.test_case "truncated frame detected" `Quick
            test_frame_truncated;
          Alcotest.test_case "read deadline" `Quick test_frame_read_deadline;
          Alcotest.test_case "summary/error payload round-trip" `Quick
            test_summary_roundtrip;
          Alcotest.test_case "incremental decoder: all split points" `Quick
            test_decoder_split_points;
          Alcotest.test_case "incremental decoder: oversized mid-stream"
            `Quick test_decoder_oversized_midstream ] );
      ( "requests",
        [ Alcotest.test_case "query, sql, explain, metrics, errors" `Quick
            test_server_basics;
          Alcotest.test_case "rejected session option" `Quick
            test_bad_set_option ] );
      ( "admission",
        [ Alcotest.test_case "SERVER_BUSY shed + re-admission" `Quick
            test_server_busy;
          Alcotest.test_case "SERVER_BUSY retried with backoff" `Quick
            test_busy_retry;
          Alcotest.test_case "busy-retry backoff is jittered" `Quick
            test_backoff_jitter ] );
      ( "descriptors",
        [ Alcotest.test_case "rejected HELLO leaks no server fd" `Quick
            test_rejected_hello_no_server_fd_leak;
          Alcotest.test_case "rejected handshake leaks no client fd" `Quick
            test_rejected_handshake_no_client_fd_leak ] );
      ( "pipelining-burst",
        [ Alcotest.test_case "burst past the window fully answered" `Quick
            test_pipelined_burst_over_window ] );
      ( "pipelining",
        [ Alcotest.test_case "W=8 in order, per-slot errors, idle CANCEL"
            `Quick test_pipelined_queries ] );
      ( "soak",
        [ Alcotest.test_case "500 idle connections, active client unharmed"
            `Quick test_idle_connection_soak ] );
      ( "degradation",
        [ Alcotest.test_case "query timeout (typed, connection survives)"
            `Quick test_query_timeout;
          Alcotest.test_case "slow query leaves the reactor free" `Quick
            test_slow_query_leaves_reactor_free;
          Alcotest.test_case "client CANCEL mid-query" `Quick
            test_client_cancel;
          Alcotest.test_case "idle reaper spares in-flight queries" `Quick
            test_idle_reaper_vs_slow_query ] );
      ( "drain",
        [ Alcotest.test_case "graceful drain + WAL recovery" `Quick
            test_graceful_drain;
          Alcotest.test_case "drain wakes a full wait queue" `Quick
            test_drain_wakes_wait_queue ] );
      ( "differential",
        [ Alcotest.test_case "8 clients, seed 11 (adaptive)" `Quick
            (run_concurrent_differential 11);
          Alcotest.test_case "8 clients, seed 23 (adaptive)" `Quick
            (run_concurrent_differential 23);
          Alcotest.test_case "8 clients, seed 47 (adaptive)" `Quick
            (run_concurrent_differential 47);
          Alcotest.test_case "8 clients, seed 23 (pipelined W=8)" `Quick
            (run_concurrent_differential ~pipelined:true 23);
          Alcotest.test_case "8 clients, seed 47 (pipelined W=8)" `Quick
            (run_concurrent_differential ~pipelined:true 47) ] ) ]
