(** Per-connection session state.

    Every admitted connection carries one [Session.t] for its lifetime:
    the query-shaping options a client tunes with SET frames (the remote
    shell's [:format]/[:strategy]/[:jobs] commands) plus per-connection
    accounting surfaced by the METRICS request. Sessions are owned by
    exactly one handler thread, so the mutable fields need no locking. *)

type format = [ `Table | `Xml ]

type t = {
  id : int;
  connected_at : float;
  mutable contains : Xomatiq.Xq2sql.contains_strategy;
      (** how contains() is rewritten for this session's queries *)
  mutable format : format;  (** result rendering for Query responses *)
  mutable jobs : int option;
      (** worker-domain override re-asserted before each of this
          session's queries; [None] leaves the process-global pool
          setting alone. The pool itself is shared — see PROTOCOL.md. *)
  mutable queries : int;    (** requests that produced a result stream *)
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable prep : (string * Xomatiq.Engine.prepared_text) option;
      (** session-pinned preparation of the last Query text: a client
          re-running its hot query skips the plan-cache mutex and
          hashtable (revalidated against the catalog version and the
          plan-shaping settings on every use) *)
}

val create : id:int -> t
(** Defaults: keyword-index contains strategy, table output, no jobs
    override. *)

val set_option : t -> name:string -> value:string -> (string, string) result
(** Apply one SET request. Options: [strategy keyword|like],
    [format table|xml], [jobs N|default] (empty value reports the
    current setting). [Ok ack] is the acknowledgement payload; [Error]
    the human-readable rejection. *)

val info_json : t -> string
(** The ["session"] object of a METRICS reply. *)
