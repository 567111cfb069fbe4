(* A plain atomic counter; see pool.mli for why it still exists. *)

let clamp_jobs n = max 1 (min 64 n)

let default_jobs () = clamp_jobs (Domain.recommended_domain_count ())

(* 0 means "never set": read as the default *)
let current = Atomic.make 0

let jobs () = match Atomic.get current with 0 -> default_jobs () | n -> n

let set_jobs n = Atomic.set current (clamp_jobs n)
