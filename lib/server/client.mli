(** Client library for the gRNA query server.

    One [t] is one connection with its own server-side session; it is
    not thread-safe — give each client thread its own connection (the
    differential tests and the E8 bench do exactly that).

    Every call is synchronous: it sends one request frame and reads
    frames until the matching terminal frame arrives. A typed error
    frame raises {!Server_error} with the wire code (["TIMEOUT"],
    ["SERVER_BUSY"], ["QUERY_ERROR"], ...) — the connection remains
    usable afterwards unless the code was a connection-level one. *)

type t

exception Server_error of string * string
(** [(code, message)] from an error frame — see [Protocol.err_*]. *)

val connect :
  ?host:string -> ?timeout_s:float -> ?retry_for_s:float ->
  ?busy_retry_for_s:float -> port:int -> unit -> t
(** TCP connect + HELLO/WELCOME handshake. [timeout_s] (default 10)
    bounds each I/O step; [retry_for_s] (default 0) keeps retrying a
    refused connection for that long — handy while a freshly spawned
    server is still binding. [busy_retry_for_s] (default 0) additionally
    retries a [SERVER_BUSY] admission rejection with doubling backoff
    (50 ms up to 500 ms) for that long — a shed connection is transient,
    and batch scripts should not hard-fail on it.
    @raise Server_error when the server rejects the handshake (e.g.
    [SERVER_BUSY] after the retry budget, or a version mismatch).
    @raise Unix.Unix_error when the server cannot be reached.

    Also sets SIGPIPE to ignore (where supported): a write to a
    connection the server already reaped must surface as a catchable
    [EPIPE], not kill the process. *)

val query : t -> string -> string * Protocol.summary
(** Run a FLWR query; returns the rendered result body (all row chunks
    concatenated) and the summary trailer. *)

val sql : t -> string -> string * Protocol.summary
(** Run one SQL statement. *)

val explain : ?analyze:bool -> t -> string -> string
(** EXPLAIN (or EXPLAIN ANALYZE) a FLWR query. *)

val ping : t -> string -> string
(** Echo probe; returns the server's payload. *)

val metrics : t -> string
(** The server's metrics snapshot (JSON). *)

val set_option : t -> name:string -> value:string -> string
(** Set a session option ([strategy] / [format]); returns the
    acknowledgement. *)

val query_pipelined :
  ?window:int -> ?sql:bool -> t -> string list ->
  (string * Protocol.summary, string * string) result list
(** Run many queries with xomatiq/1 pipelining: up to [window] (default
    8) requests are on the wire before the first response is consumed,
    so a batch of cheap queries pays one round-trip per window instead
    of one per query. Results come back in request order; each element
    is [Ok (body, summary)] or [Error (code, message)] — a per-query
    error does not disturb its neighbours. [sql] sends SQL frames
    instead of FLWR ones. Keep [window] at or below the server's
    [pipeline_window] (default 32): beyond it the server simply stops
    reading until it catches up, which stalls (but does not break) the
    batch. *)

val jittered_delay : rand:float -> float -> float
(** [jittered_delay ~rand base] — the busy-retry sleep for a backoff
    step of [base] seconds: uniform on [base/2, base] for [rand] uniform
    on [0,1). Exposed so tests can pin the distribution. *)

val close : t -> unit
(** Orderly BYE (best effort) + socket close. Idempotent. *)

(** Replica-aware routing: one primary plus any number of read
    replicas. Writes (DML/DDL/transaction control, classified by
    {!Protocol.sql_is_read}) always go to the primary; reads
    round-robin across replicas that have caught up past the session's
    last write (read-your-writes: every write's DONE trailer carries
    the primary's new replication position, and a replica is eligible
    only once its applied position — from its own DONE trailers, or a
    METRICS probe when the cached value trails — has reached it),
    falling back to the primary when no replica qualifies. A replica
    that fails mid-read is benched for a second and the read retried
    elsewhere; errors that indict the statement itself ([QUERY_ERROR],
    [TIMEOUT], [CANCELED]) propagate unchanged. Not thread-safe, like
    [t]. *)
module Routed : sig
  type r

  val connect :
    ?host:string -> ?timeout_s:float -> ?retry_for_s:float ->
    ?busy_retry_for_s:float -> ?replicas:(string * int) list ->
    port:int -> unit -> r
  (** Connect to the primary at [host:port] eagerly (retry options as in
      {!val:connect}); replicas connect lazily on first eligible read. *)

  val query : r -> string -> string * Protocol.summary
  val sql : r -> string -> string * Protocol.summary

  val primary : r -> t
  (** The primary connection, for requests that must not be routed
      (EXPLAIN with session state, SET, METRICS). *)

  val last_write_seq : r -> int
  (** The session's read-your-writes fence: the highest replication
      position a write has returned. *)

  val replica_reads : r -> int
  val primary_reads : r -> int
  (** How many reads each side served (tests pin routing behaviour). *)

  val close : r -> unit
end

(** {2 Raw frame access}

    For tests that need to step outside the request/response discipline
    (mid-query CANCEL, malformed frames, half-close). *)

val send_raw : t -> char -> string -> unit
val read_raw : t -> char * string
val fd : t -> Unix.file_descr
