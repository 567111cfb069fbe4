module P = Protocol
module Obs = Rdb.Obs
module R = Conc.Reactor

type config = {
  host : string;
  port : int;
  max_clients : int;
  queue_depth : int;
  query_timeout_s : float option;
  idle_timeout_s : float option;
  write_timeout_s : float;
  max_frame : int;
  pipeline_window : int;
  read_only : bool;
  done_seq : (unit -> int) option;
  repl_status : (unit -> string) option;
}

let default_config =
  { host = "127.0.0.1"; port = 7788; max_clients = 32; queue_depth = 16;
    query_timeout_s = None; idle_timeout_s = None; write_timeout_s = 10.;
    max_frame = P.max_frame_default; pipeline_window = 32; read_only = false;
    done_seq = None; repl_status = None }

(* A write reached a read-only server (a replica); mapped to the
   [READ_ONLY] error code so a routed client can fail over to the
   primary instead of treating it as a query error. *)
exception Read_only_violation

(* ------------------------------------------------------------------ *)
(* Server-wide metrics                                                 *)
(* ------------------------------------------------------------------ *)

let m_accepted = Obs.Counter.create ()
let m_shed = Obs.Counter.create ()
let m_queries = Obs.Counter.create ()
let m_timeouts = Obs.Counter.create ()
let m_canceled = Obs.Counter.create ()
let m_query_errors = Obs.Counter.create ()
let m_reaped_idle = Obs.Counter.create ()
let m_slow_client_drops = Obs.Counter.create ()
let m_proto_errors = Obs.Counter.create ()
let m_bytes_in = Obs.Counter.create ()
let m_bytes_out = Obs.Counter.create ()
let m_sched_inline = Obs.Counter.create ()
let m_sched_dispatched = Obs.Counter.create ()
let m_pipelined = Obs.Counter.create ()
let m_latency = Obs.Histogram.create ()

let () =
  Obs.register_counter "server.accepted" m_accepted;
  Obs.register_counter "server.shed" m_shed;
  Obs.register_counter "server.queries" m_queries;
  Obs.register_counter "server.timeouts" m_timeouts;
  Obs.register_counter "server.canceled" m_canceled;
  Obs.register_counter "server.query_errors" m_query_errors;
  Obs.register_counter "server.reaped_idle" m_reaped_idle;
  Obs.register_counter "server.slow_client_drops" m_slow_client_drops;
  Obs.register_counter "server.proto_errors" m_proto_errors;
  Obs.register_counter "server.bytes_in" m_bytes_in;
  Obs.register_counter "server.bytes_out" m_bytes_out;
  Obs.register_counter "server.sched_inline" m_sched_inline;
  Obs.register_counter "server.sched_dispatched" m_sched_dispatched;
  Obs.register_counter "server.pipelined" m_pipelined;
  Obs.register_histogram "server.query_latency" m_latency

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type reactor_state = {
  reactor : R.t;
  mutable rthread : Thread.t option;
  (* mirrors of the reactor thread's bookkeeping, readable from any
     thread (metrics gauges) *)
  r_active : int Atomic.t;
  r_waiting : int Atomic.t;
  r_conns : int Atomic.t;
}

type t = {
  cfg : config;
  wh : Datahounds.Warehouse.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop : bool Atomic.t;
  mutable next_id : int;
  rs : reactor_state;
}

let port t = t.bound_port

(* Begin a drain: raise the flag, then wake the reactor's poll. Signal
   handlers must NOT call this (posting writes to the wake pipe and a
   handler can preempt a thread mid-critical-section); they set the
   atomic flag only and lean on the 0.25 s loop slices, which notice it
   promptly. *)
let request_stop t =
  Atomic.set t.stop true;
  R.post t.rs.reactor (fun () -> ())

let stopping t = Atomic.get t.stop

(* ------------------------------------------------------------------ *)
(* Query execution                                                     *)
(* ------------------------------------------------------------------ *)

let values_to_table columns rows =
  Xomatiq.Tagger.to_table ~labels:columns
    (List.map
       (fun r -> Array.to_list (Array.map Rdb.Value.to_string r))
       rows)

(* Render one request that [plan_work] does not plan itself: a SQL
   statement other than a query, or EXPLAIN [ANALYZE] of a FLWR text.
   Runs on whichever thread the scheduler picked; everything it raises
   is reported as a typed error frame. *)
let render_request t kind text =
  match kind with
  | `Sql stmt -> begin
    (* DML / DDL / EXPLAIN run on the warehouse's default session;
       statement-level locking inside the database serializes writers. *)
    if t.cfg.read_only && not (P.stmt_is_read stmt) then
      raise Read_only_violation;
    match Rdb.Database.exec_exn (Datahounds.Warehouse.db t.wh) text with
    | Rdb.Database.Rows { columns; rows } ->
      (values_to_table columns rows, List.length rows)
    | Rdb.Database.Affected n -> (Printf.sprintf "%d row(s) affected\n" n, n)
    | Rdb.Database.Done msg -> (msg ^ "\n", 0)
    | Rdb.Database.Explained s -> (s ^ "\n", 0)
    | exception Failure m -> raise (Xomatiq.Engine.Query_error m)
  end
  | (`Explain | `Analyze) as k -> begin
    match Xomatiq.Parser.parse text with
    | ast ->
      let explain =
        if k = `Analyze then Xomatiq.Engine.explain_analyze
        else Xomatiq.Engine.explain
      in
      (explain t.wh ast ^ "\n", 0)
    | exception (Xomatiq.Parser.Parse_error _ as e) ->
      raise (Xomatiq.Engine.Query_error (Xomatiq.Parser.error_to_string e))
  end

(* Chunked result streaming: 64 KiB R frames, then the D trailer. *)
let chunk_size = 64 * 1024

(* Plan one request into [(job, lane)]: [job] produces the response
   body on whichever thread runs it, [lane] says whether it goes off
   the calling thread (so the socket stays watched) or runs inline.

   The request is planned *here*, on the calling thread (a plan-cache
   lookup on the hot path), and the root cost estimate picks the lane:
   a cheap query never pays the dispatch round-trip, an expensive one
   keeps the dispatched path so CANCEL frames and deadlines stay live
   mid-query. Planning errors raise [Query_error] from here, exactly as
   they would from inside the dispatched task. *)
let plan_work t sess token kind text =
  let finish ~t0 body rows cached =
    let exec_s = Obs.now_s () -. t0 in
    let seq = match t.cfg.done_seq with Some f -> f () | None -> 0 in
    ( body,
      { P.sum_rows = rows; sum_exec_ms = exec_s *. 1000.;
        sum_cached = cached; sum_seq = seq },
      exec_s )
  in
  let render_job kind =
    fun () ->
      let t0 = Obs.now_s () in
      let body, rows = render_request t kind text in
      finish ~t0 body rows false
  in
  match kind with
  | `Query ->
    let pt =
      Xomatiq.Engine.prepare_text ~contains_strategy:sess.Session.contains
        t.wh text
    in
    let lane = Conc.Sched.lane ~est_cost:(Xomatiq.Engine.prepared_cost pt) in
    let job () =
      let t0 = Obs.now_s () in
      let result = Xomatiq.Engine.run_prepared ~cancel:token pt in
      let body =
        match sess.Session.format with
        | `Table -> Xomatiq.Engine.result_to_table result
        | `Xml ->
          Gxml.Printer.document_to_string ~pretty:true
            (Xomatiq.Engine.result_to_xml result)
      in
      finish ~t0 body
        (List.length result.Xomatiq.Engine.rows)
        result.Xomatiq.Engine.cached
    in
    (job, lane)
  | `Sql -> begin
    let db = Datahounds.Warehouse.db t.wh in
    let planned_job planned =
      let job () =
        let t0 = Obs.now_s () in
        let columns, rows =
          Rdb.Database.run_planned db ~cancel:token planned
        in
        finish ~t0 (values_to_table columns rows) (List.length rows) false
      in
      (job, Conc.Sched.lane ~est_cost:planned.Rdb.Planner.est_cost)
    in
    match Rdb.Sql_parser.parse text with
    | Rdb.Sql_ast.Select_stmt sel ->
      planned_job (Rdb.Database.plan_select db sel)
    | Rdb.Sql_ast.Query_stmt q ->
      planned_job (Rdb.Planner.plan_query (Rdb.Database.catalog db) q)
    | stmt ->
      (* DML / DDL / transaction control: statement-level locking
         serializes writers, so stay inline *)
      (render_job (`Sql stmt), Conc.Sched.Inline)
    | exception ((Rdb.Sql_parser.Parse_error _ | Rdb.Sql_lexer.Lex_error _) as e) ->
      raise (Xomatiq.Engine.Query_error (Rdb.Sql_parser.error_to_string e))
  end
  (* pure planning, never worth a dispatch *)
  | `Explain -> (render_job `Explain, Conc.Sched.Inline)
  (* executes the query with unknown-ahead cost: keep it cancelable *)
  | `Analyze -> (render_job `Analyze, Conc.Sched.Dispatch)

let storage_json wh =
  let db = Datahounds.Warehouse.db wh in
  let backend = if Rdb.Database.is_disk db then "disk" else "mem" in
  let dir =
    match Rdb.Database.data_dir db with
    | Some d -> Printf.sprintf ", \"data_dir\": %S" d
    | None -> ""
  in
  let pool =
    match Rdb.Database.storage db with
    | Some st ->
      Printf.sprintf ", \"pool_frames\": %d"
        (Rdb.Bufpool.frames (Rdb.Storage.pool st))
    | None -> ""
  in
  Printf.sprintf "{\"backend\": %S%s%s}" backend dir pool

let replication_json t =
  match t.cfg.repl_status with
  | Some f -> f ()
  | None -> "{\"role\": \"standalone\"}"

let metrics_payload t sess =
  "{\"metrics\": " ^ Obs.dump_json ()
  ^ Printf.sprintf ", \"sched\": {\"cost_threshold\": %g}"
      Conc.Sched.cost_threshold
  ^ ", \"storage\": " ^ storage_json t.wh
  ^ ", \"replication\": " ^ replication_json t
  ^ ", \"session\": " ^ Session.info_json sess ^ "}"

let timeout_deadline t =
  match t.cfg.query_timeout_s with
  | Some s -> Obs.now_s () +. s
  | None -> infinity

let fire_wallclock_timeout t token =
  Rdb.Cancel.cancel ~code:Rdb.Cancel.timeout_code token
    (Printf.sprintf "query exceeded the %.3fs wall-clock budget"
       (Option.get t.cfg.query_timeout_s))

(* ================================================================== *)
(* Event-driven reactor model (default)                                *)
(* ================================================================== *)

(* One reactor thread owns the listening socket and every connection:
   idle connections cost a pollfd entry, not a thread. Each connection
   is an explicit state machine (handshake -> ready -> closing) with an
   incremental frame decoder on the read side and a coalescing frame
   buffer on the write side. Requests decoded beyond the one currently
   executing queue per-connection up to [pipeline_window] — xomatiq/1
   pipelining — and responses are written back strictly in request
   order, many frames per write() syscall.

   The adaptive scheduler's lanes survive unchanged: cheap queries run
   inline on the reactor thread (no hand-off at all), expensive ones
   dispatch to a shepherd thread while the reactor keeps reading the
   connection — CANCEL and BYE stay live mid-query, and other sessions
   keep being served. *)

type phase = Handshaking | Ready | Closing

type conn = {
  c_fd : Unix.file_descr;
  c_sess : Session.t;
  dec : P.Decoder.t;
  out : P.Outbuf.t;
  pending : P.request Queue.t;
  born : float;
  mutable phase : phase;
  mutable parked : bool;       (* accepted, waiting for a session slot *)
  mutable admitted : bool;
  mutable closed : bool;
  mutable inflight : Rdb.Cancel.t option;
  mutable pending_bye : bool;
  mutable last_activity : float;
  mutable last_write_progress : float;
}

type rloop = {
  srv : t;
  rs : reactor_state;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  wait_line : conn Queue.t;
  rdbuf : Bytes.t;  (* shared read staging: reads happen only on the
                       reactor thread and feed per-connection decoders
                       immediately, so one buffer serves every socket *)
  mutable draining : bool;
}

(* Stop pumping responses into a connection whose client is not reading
   them; resume once the outbuf drains below the mark. Bounds the
   per-connection memory a pipelined burst of large results can pin. *)
let outbuf_high_water = 1 lsl 20

(* Stop read()ing a connection whose decoded-but-unconsumed backlog has
   grown past this; level-triggered polling picks the rest up once the
   pipeline queue drains. *)
let decoder_backlog_cap = 256 * 1024

let conn_window rl = max 1 rl.srv.cfg.pipeline_window

(* Interest refresh: read while we are willing to decode more, write
   while response bytes are waiting. The backlog cap only pauses reading
   when the buffered bytes contain a complete frame (one the window will
   decode later); a partial frame must keep reading however large it
   grows — up to [max_frame], which bounds it — because only more input
   can ever complete it. *)
let refresh_interest rl conn =
  if not conn.closed then
    let read =
      (not conn.parked)
      && conn.phase <> Closing
      && (not conn.pending_bye)
      && Queue.length conn.pending < conn_window rl
      && (P.Decoder.buffered conn.dec < decoder_backlog_cap
          || not (P.Decoder.frame_ready conn.dec))
    in
    R.want rl.rs.reactor conn.c_fd ~read ~write:(not (P.Outbuf.is_empty conn.out))

let close_conn rl conn =
  if not conn.closed then begin
    conn.closed <- true;
    (match conn.inflight with
     | Some token -> Rdb.Cancel.cancel token "client went away mid-query"
     | None -> ());
    conn.inflight <- None;
    R.unregister rl.rs.reactor conn.c_fd;
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    Hashtbl.remove rl.conns conn.c_fd;
    Atomic.decr rl.rs.r_conns;
    if conn.parked then begin
      conn.parked <- false;
      Atomic.decr rl.rs.r_waiting
    end;
    if conn.admitted then begin
      conn.admitted <- false;
      Atomic.decr rl.rs.r_active
    end
  end

let emit rl conn tag payload =
  P.Outbuf.add_frame conn.out tag payload;
  ignore rl

(* Queue a typed error (or goodbye) and close once it is flushed. *)
let shed rl conn code msg =
  if not conn.closed && conn.phase <> Closing then begin
    emit rl conn P.tag_error (P.error_payload ~code msg);
    conn.phase <- Closing;
    Queue.clear conn.pending
  end

let flush_conn rl conn =
  if not conn.closed then begin
    let before = P.Outbuf.length conn.out in
    (match P.Outbuf.flush conn.out conn.c_fd with
     | `All | `Blocked ->
       let written = before - P.Outbuf.length conn.out in
       if written > 0 then begin
         conn.c_sess.Session.bytes_out <-
           conn.c_sess.Session.bytes_out + written;
         Obs.Counter.incr ~by:written m_bytes_out;
         conn.last_write_progress <- Obs.now_s ()
       end;
       if P.Outbuf.is_empty conn.out then begin
         conn.last_write_progress <- Obs.now_s ();
         if conn.phase = Closing then close_conn rl conn
         else refresh_interest rl conn
       end
       else refresh_interest rl conn
     | exception (P.Closed | Unix.Unix_error _) -> close_conn rl conn)
  end

let emit_result rl conn body summary =
  let len = String.length body in
  let rec chunks off =
    if off < len then begin
      let n = min chunk_size (len - off) in
      emit rl conn P.tag_rows (String.sub body off n);
      chunks (off + n)
    end
  in
  chunks 0;
  emit rl conn P.tag_done (P.done_payload summary)

(* Report one query outcome. Counters are updated even when the
   connection is already gone; frames are only queued for live
   connections. *)
let emit_outcome rl conn outcome =
  let live = (not conn.closed) && conn.phase <> Closing in
  match outcome with
  | Ok (body, summary, exec_s) ->
    conn.c_sess.Session.queries <- conn.c_sess.Session.queries + 1;
    Obs.Counter.incr m_queries;
    Obs.Histogram.observe m_latency exec_s;
    if live then emit_result rl conn body summary
  | Error (Rdb.Cancel.Canceled (code, msg)) ->
    if code = Rdb.Cancel.timeout_code then Obs.Counter.incr m_timeouts
    else Obs.Counter.incr m_canceled;
    if live then emit rl conn P.tag_error (P.error_payload ~code msg)
  | Error (Xomatiq.Engine.Query_error m) ->
    Obs.Counter.incr m_query_errors;
    if live then emit rl conn P.tag_error (P.error_payload ~code:P.err_query m)
  | Error Read_only_violation ->
    Obs.Counter.incr m_query_errors;
    if live then
      emit rl conn P.tag_error
        (P.error_payload ~code:P.err_read_only
           "this server is a read-only replica; send writes to the primary")
  | Error e ->
    Obs.Counter.incr m_query_errors;
    if live then
      emit rl conn P.tag_error
        (P.error_payload ~code:P.err_internal (Printexc.to_string e))

let proto_violation rl conn msg =
  Obs.Counter.incr m_proto_errors;
  (match conn.inflight with
   | Some token -> Rdb.Cancel.cancel token "protocol violation mid-query"
   | None -> ());
  shed rl conn P.err_proto msg

(* Dispatch one planned job off the reactor thread; its completion is
   posted back so the response is written (in order) by the reactor. *)
let dispatch_job rl conn token job k =
  conn.inflight <- Some token;
  let finish result = R.post rl.rs.reactor (fun () -> k result) in
  let runner () =
    finish (match job () with v -> Ok v | exception e -> Error e)
  in
  ignore (Thread.create runner ())

let rec pump rl conn =
  if
    (not conn.closed) && conn.phase = Ready && conn.inflight = None
    && P.Outbuf.length conn.out < outbuf_high_water
  then
    match Queue.take_opt conn.pending with
    | None ->
      if conn.pending_bye then begin
        conn.pending_bye <- false;
        emit rl conn P.tag_ok "bye";
        conn.phase <- Closing
      end
    | Some req ->
      if not (Queue.is_empty conn.pending) then Obs.Counter.incr m_pipelined;
      (match req with
       | P.Ping payload ->
         emit rl conn P.tag_ok payload;
         pump rl conn
       | P.Metrics ->
         emit rl conn P.tag_metrics_reply (metrics_payload rl.srv conn.c_sess);
         pump rl conn
       | P.Set (name, value) ->
         (match Session.set_option conn.c_sess ~name ~value with
          | Ok ack -> emit rl conn P.tag_ok ack
          | Error m ->
            emit rl conn P.tag_error (P.error_payload ~code:P.err_query m));
         pump rl conn
       | P.Hello _ | P.Cancel | P.Bye ->
         (* handled at decode time; never queued *)
         pump rl conn
       | P.Query text -> start_query rl conn `Query text
       | P.Sql text -> start_query rl conn `Sql text
       | P.Explain text -> start_query rl conn `Explain text
       | P.Analyze text -> start_query rl conn `Analyze text)

and start_query rl conn kind text =
  let t = rl.srv in
  let token = Rdb.Cancel.create ~deadline:(timeout_deadline t) () in
  match plan_work t conn.c_sess token kind text with
  | exception e ->
    emit_outcome rl conn (Error e);
    pump rl conn
  | job, Conc.Sched.Inline ->
    (* Inline on the reactor thread: no hand-off, no wakeup. The cost
       gate keeps these cheap, so other connections wait microseconds —
       the same trade the session thread made before, now shared. *)
    Obs.Counter.incr m_sched_inline;
    let outcome = match job () with v -> Ok v | exception e -> Error e in
    emit_outcome rl conn outcome;
    conn.last_activity <- Obs.now_s ();
    pump rl conn
  | job, Conc.Sched.Dispatch ->
    Obs.Counter.incr m_sched_dispatched;
    dispatch_job rl conn token job (fun outcome ->
        conn.inflight <- None;
        conn.last_activity <- Obs.now_s ();
        emit_outcome rl conn outcome;
        if rl.draining then begin
          shed rl conn P.err_shutdown "server is draining";
          flush_conn rl conn
        end
        else
          (* the freed slot may unblock frames already sitting decoded —
             or still undecoded — in [dec]; [service] picks them up (and
             [pump] answers a pending BYE once the queue is empty) *)
          service rl conn)

(* Decode buffered bytes into the pipeline queue. CANCEL and BYE act
   immediately (they are the out-of-band frames); everything else joins
   the per-connection queue in arrival order, up to the window. *)
and decode rl conn =
  if not conn.closed then
    match conn.phase with
    | Closing -> ()
    | Handshaking -> begin
      match P.Decoder.next conn.dec with
      | None -> ()
      | Some (tag, payload) when tag = P.tag_hello ->
        if payload <> P.version then
          shed rl conn P.err_proto
            (Printf.sprintf
               "unsupported protocol version %S (server speaks %s)" payload
               P.version)
        else begin
          emit rl conn P.tag_welcome P.version;
          conn.phase <- Ready;
          decode rl conn
        end
      | Some _ -> proto_violation rl conn "expected HELLO as the first frame"
      | exception P.Proto_error m -> proto_violation rl conn m
    end
    | Ready ->
      if Queue.length conn.pending < conn_window rl && not conn.pending_bye
      then begin
        match P.Decoder.next conn.dec with
        | None -> ()
        | exception P.Proto_error m -> proto_violation rl conn m
        | Some frame -> begin
          match P.request_of_frame frame with
          | Error m -> proto_violation rl conn m
          | Ok P.Cancel ->
            (* the oldest incomplete request: the one executing, else
               the head of the queue (answered CANCELED, never run) *)
            (match conn.inflight with
             | Some token -> Rdb.Cancel.cancel token "canceled by client"
             | None -> (
               match Queue.take_opt conn.pending with
               | Some _ ->
                 Obs.Counter.incr m_canceled;
                 emit rl conn P.tag_error
                   (P.error_payload ~code:Rdb.Cancel.canceled_code
                      "canceled before execution")
               | None -> emit rl conn P.tag_ok "nothing to cancel"));
            decode rl conn
          | Ok P.Bye ->
            (* goodbye: drop everything queued behind it, cancel the
               in-flight query, acknowledge once quiet *)
            Queue.clear conn.pending;
            (match conn.inflight with
             | Some token ->
               conn.pending_bye <- true;
               Rdb.Cancel.cancel token "connection closing"
             | None ->
               emit rl conn P.tag_ok "bye";
               conn.phase <- Closing)
          | Ok (P.Hello _) ->
            proto_violation rl conn "unexpected second handshake"
          | Ok req ->
            Queue.push req conn.pending;
            decode rl conn
        end
      end

(* Drive one connection to quiescence: decode buffered bytes, execute
   what the window admits, flush responses. A single pass is not enough
   because each stage unblocks the one before it — executing a queued
   request frees a window slot for a frame that is already sitting in
   [dec] (a client that bursts past [pipeline_window] gets no further
   readable event for that surplus: its bytes left the kernel buffer
   long ago), and a flush that drains the outbuf below the high-water
   mark lets back-pressured requests resume. Loop until a full pass
   moves nothing, then leave the interest set matching the final state.
   Terminates: every pass's progress consumes buffered or queued input
   that only [handle_read] (never called from here) replenishes. *)
and service rl conn =
  if not conn.closed then begin
    let buffered = P.Decoder.buffered conn.dec in
    let queued = Queue.length conn.pending in
    let unsent = P.Outbuf.length conn.out in
    decode rl conn;
    pump rl conn;
    flush_conn rl conn;
    if conn.closed then ()
    else if
      P.Decoder.buffered conn.dec <> buffered
      || Queue.length conn.pending <> queued
      || P.Outbuf.length conn.out <> unsent
    then service rl conn
    else refresh_interest rl conn
  end

let handle_read rl conn =
  let rec go budget =
    if budget > 0 && not conn.closed then
      match Unix.read conn.c_fd rl.rdbuf 0 (Bytes.length rl.rdbuf) with
      | 0 -> close_conn rl conn
      | n ->
        conn.last_activity <- Obs.now_s ();
        conn.c_sess.Session.bytes_in <- conn.c_sess.Session.bytes_in + n;
        Obs.Counter.incr ~by:n m_bytes_in;
        P.Decoder.feed conn.dec rl.rdbuf 0 n;
        (* same partial-frame exemption as [refresh_interest]: a frame
           still missing bytes can only complete by reading on *)
        if
          P.Decoder.buffered conn.dec < decoder_backlog_cap
          || not (P.Decoder.frame_ready conn.dec)
        then go (budget - n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go budget
      | exception Unix.Unix_error _ -> close_conn rl conn
  in
  go (4 * 1024 * 1024)

let on_conn_event rl conn (ev : R.ready) =
  if not conn.closed then begin
    if conn.parked then begin
      (* no interest bits are set while parked; only a hangup (reported
         unconditionally by poll) can arrive *)
      if ev.hup then close_conn rl conn
    end
    else begin
      if ev.readable then handle_read rl conn
      else if ev.hup && not ev.writable then close_conn rl conn;
      service rl conn
    end
  end

let admit rl conn =
  conn.admitted <- true;
  Atomic.incr rl.rs.r_active;
  refresh_interest rl conn

let admit_from_wait_line rl =
  if not rl.draining then
    let rec go () =
      if
        Atomic.get rl.rs.r_active < rl.srv.cfg.max_clients
        && not (Queue.is_empty rl.wait_line)
      then begin
        let conn = Queue.pop rl.wait_line in
        if not conn.closed then begin
          conn.parked <- false;
          Atomic.decr rl.rs.r_waiting;
          admit rl conn
        end;
        go ()
      end
    in
    go ()

let accept_burst rl =
  let t = rl.srv in
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ -> begin
      Obs.Counter.incr m_accepted;
      match
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let id = t.next_id in
        t.next_id <- id + 1;
        let now = Obs.now_s () in
        let conn =
          { c_fd = fd; c_sess = Session.create ~id;
            dec = P.Decoder.create ~max_frame:t.cfg.max_frame ();
            out = P.Outbuf.create (); pending = Queue.create (); born = now;
            phase = Handshaking; parked = false; admitted = false;
            closed = false; inflight = None; pending_bye = false;
            last_activity = now; last_write_progress = now }
        in
        Hashtbl.replace rl.conns fd conn;
        Atomic.incr rl.rs.r_conns;
        R.register rl.rs.reactor fd ~read:false ~write:false
          (on_conn_event rl conn);
        if Atomic.get t.stop then begin
          shed rl conn P.err_shutdown "server is draining";
          flush_conn rl conn
        end
        else if Atomic.get rl.rs.r_active < t.cfg.max_clients then
          admit rl conn
        else if Atomic.get rl.rs.r_waiting < t.cfg.queue_depth then begin
          conn.parked <- true;
          Atomic.incr rl.rs.r_waiting;
          Queue.push conn rl.wait_line
        end
        else begin
          Obs.Counter.incr m_shed;
          shed rl conn P.err_busy
            (Printf.sprintf
               "%d active and %d waiting clients; try again later"
               t.cfg.max_clients t.cfg.queue_depth);
          flush_conn rl conn
        end
      with
      | () -> go ()
      | exception e ->
        (* never leak the accepted descriptor, whatever failed *)
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
    end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      go ()
  in
  go ()

let begin_drain rl =
  if not rl.draining then begin
    rl.draining <- true;
    R.unregister rl.rs.reactor rl.srv.listen_fd;
    (* turn the wait line away *)
    Queue.iter
      (fun conn ->
        if not conn.closed then begin
          conn.parked <- false;
          Atomic.decr rl.rs.r_waiting;
          shed rl conn P.err_shutdown "server is draining";
          flush_conn rl conn
        end)
      rl.wait_line;
    Queue.clear rl.wait_line;
    (* live sessions: in-flight queries finish (their completion sheds);
       everyone else gets the typed goodbye now *)
    let to_shed =
      Hashtbl.fold
        (fun _ conn acc ->
          if conn.inflight = None && conn.phase <> Closing then conn :: acc
          else acc)
        rl.conns []
    in
    List.iter
      (fun conn ->
        shed rl conn P.err_shutdown "server is draining";
        flush_conn rl conn)
      to_shed
  end

(* Periodic housekeeping, once per poll round (<= 0.25 s apart):
   handshake and idle deadlines, slow-client write stalls, query
   wall-clock budgets. *)
let sweep rl =
  let t = rl.srv in
  let now = Obs.now_s () in
  let actions =
    Hashtbl.fold
      (fun _ conn acc ->
        if conn.closed then acc
        else if
          (not (P.Outbuf.is_empty conn.out))
          && now -. conn.last_write_progress > t.cfg.write_timeout_s
        then `Drop_slow conn :: acc
        else if conn.phase = Handshaking && (not conn.parked)
                && now -. conn.born > 5.0
        then `Handshake_timeout conn :: acc
        else
          match conn.inflight with
          | Some token ->
            if t.cfg.query_timeout_s <> None
               && Rdb.Cancel.deadline_passed token
            then `Fire_timeout token :: acc
            else acc
          | None ->
            (match t.cfg.idle_timeout_s with
             | Some idle
               when conn.phase = Ready
                    && Queue.is_empty conn.pending
                    && now -. conn.last_activity > idle ->
               (* [service] drains every complete buffered frame before
                  the reactor sleeps, so bytes still in the decoder here
                  are a partial frame from a stalled client — idle, not
                  in progress *)
               `Reap_idle conn :: acc
             | _ -> acc))
      rl.conns []
  in
  List.iter
    (function
      | `Drop_slow conn ->
        Obs.Counter.incr m_slow_client_drops;
        close_conn rl conn
      | `Handshake_timeout conn ->
        Obs.Counter.incr m_proto_errors;
        shed rl conn P.err_proto "timed out waiting for HELLO";
        flush_conn rl conn
      | `Fire_timeout token -> fire_wallclock_timeout t token
      | `Reap_idle conn ->
        (* last-instant check: bytes that raced the deadline into the
           kernel buffer are served, not reaped *)
        (match
           R.wait_fd conn.c_fd ~read:true ~write:false ~timeout_s:0.
         with
         | Some _ -> ()
         | None ->
           Obs.Counter.incr m_reaped_idle;
           shed rl conn P.err_idle "idle connection reaped";
           flush_conn rl conn))
    actions;
  admit_from_wait_line rl

let reactor_loop t rs =
  let rl =
    { srv = t; rs; conns = Hashtbl.create 256; wait_line = Queue.create ();
      rdbuf = Bytes.create (64 * 1024); draining = false }
  in
  R.register rs.reactor t.listen_fd ~read:true ~write:false
    (fun _ -> accept_burst rl);
  (* The deadline sweep walks every connection, so it must not run per
     event batch: a busy client wakes the loop thousands of times a
     second and would drag a large parked herd through the scan each
     time. Every deadline it enforces has >= 100 ms of slack, so 10 Hz
     is plenty; wait-line admission stays per-iteration because freed
     slots should seat waiters promptly and it is O(1) when nobody
     waits. *)
  let next_sweep = ref 0. in
  let rec loop () =
    if Atomic.get t.stop then begin_drain rl;
    if rl.draining && Hashtbl.length rl.conns = 0 then ()
    else begin
      R.step rs.reactor ~timeout_s:0.25;
      let now = Obs.now_s () in
      if now >= !next_sweep then begin
        sweep rl;
        next_sweep := now +. 0.1
      end
      else admit_from_wait_line rl;
      loop ()
    end
  in
  loop ();
  R.close rs.reactor

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found ->
      raise
        (Unix.Unix_error
           (Unix.EINVAL, "resolve", host)))

let start cfg wh =
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  (try Unix.bind listen_fd (Unix.ADDR_INET (resolve_host cfg.host, cfg.port))
   with e -> (try Unix.close listen_fd with _ -> ()); raise e);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let rs =
    { reactor = R.create (); rthread = None; r_active = Atomic.make 0;
      r_waiting = Atomic.make 0; r_conns = Atomic.make 0 }
  in
  let t =
    { cfg; wh; listen_fd; bound_port; stop = Atomic.make false; next_id = 1;
      rs }
  in
  Obs.register_gauge "server.active" (fun () -> Atomic.get rs.r_active);
  Obs.register_gauge "server.waiting" (fun () -> Atomic.get rs.r_waiting);
  Obs.register_gauge "server.connections" (fun () ->
      Atomic.get rs.r_conns);
  rs.rthread <- Some (Thread.create (fun () -> reactor_loop t rs) ());
  t

let wait (t : t) =
  Option.iter Thread.join t.rs.rthread;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())

let run cfg wh =
  let t = start cfg wh in
  (* Signal handlers set the flag only: [request_stop] may take locks or
     write to the reactor's wake pipe, and a handler can preempt a thread
     mid-critical-section. The reactor polls the flag within a
     quarter-second slice. *)
  let stop _ = Atomic.set t.stop true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Printf.printf
    "xomatiq server listening on %s:%d (event-driven, max-clients=%d \
     queue-depth=%d window=%d)\n%!"
    cfg.host (port t)
    cfg.max_clients cfg.queue_depth cfg.pipeline_window;
  wait t;
  Printf.printf "xomatiq server drained\n%!"
