(** Per-connection session state.

    Every admitted connection carries one [Session.t] for its lifetime:
    the query-shaping options a client tunes with SET frames (the remote
    shell's [:format]/[:strategy] commands) plus per-connection
    accounting surfaced by the METRICS request. Sessions are owned by
    exactly one handler thread, so the mutable fields need no locking. *)

type format = [ `Table | `Xml ]

type t = {
  id : int;
  connected_at : float;
  mutable contains : Xomatiq.Xq2sql.contains_strategy;
      (** how contains() is rewritten for this session's queries *)
  mutable format : format;  (** result rendering for Query responses *)
  mutable queries : int;    (** requests that produced a result stream *)
  mutable bytes_in : int;
  mutable bytes_out : int;
}

val create : id:int -> t
(** Defaults: keyword-index contains strategy, table output. *)

val set_option : t -> name:string -> value:string -> (string, string) result
(** Apply one SET request. Options: [strategy keyword|like],
    [format table|xml] (empty value reports the current setting). [Ok ack] is the acknowledgement payload; [Error]
    the human-readable rejection. *)

val info_json : t -> string
(** The ["session"] object of a METRICS reply. *)
