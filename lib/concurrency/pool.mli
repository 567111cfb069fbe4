(** A worker-count setting kept only for the benchmark harness.

    Queries run on one domain, so nothing in the engine, the server or
    the CLI reads this counter. The benchmark harness ([perfbench/])
    still calls these three functions to record its provenance; they
    are deleted together with those calls in the benchmark's next
    change. *)

val default_jobs : unit -> int
(** The host's core count ([Domain.recommended_domain_count ()]),
    clamped to [\[1, 64\]]. Reads no environment variable. *)

val jobs : unit -> int
(** The current setting: {!default_jobs} until {!set_jobs} is called. *)

val set_jobs : int -> unit
(** Store a new setting, clamped to [\[1, 64\]]. *)
