(* Adaptive query scheduling.

   The pre-adaptive server granted every query its full Exchange fan-out
   unconditionally, which is exactly backwards under load: a trivial
   point query paid a pool dispatch plus partition overhead, and an
   expensive query's partitions queued behind other queries' partitions
   on the same few domains. BENCH_E8.json recorded the collapse (jobs=2
   dropped a single client from ~5700 to ~770 QPS).

   This module centralises the two gates that fix it:

   - a *cost gate* at plan time: queries whose root cost estimate is
     below [cost_threshold] run sequentially on the calling thread and
     never touch the pool;
   - an *idle gate* at run time: an Exchange fan-out goes parallel only
     when at least one pool worker is actually idle, and degrades to
     sequential in-thread execution otherwise (results are byte-identical
     either way — only the iteration schedule changes). *)

(* Cost is in the planner's unit ("rows touched"). The threshold is
   roughly where Exchange partition setup plus a pool round-trip stops
   dominating: a full scan of a few tens of thousands of rows. *)
let cost_threshold = 50_000.

(* ------------------------------------------------------------------ *)
(* Decisions                                                           *)
(* ------------------------------------------------------------------ *)

type decision = { par : bool; workers : int; reason : string }

let seq reason = { par = false; workers = 1; reason }

let decision_string d =
  Printf.sprintf "sched=%s workers=%d reason=%s"
    (if d.par then "par" else "seq")
    d.workers d.reason

(* Plan-time decision from the root cost estimate. "par" for an
   expensive query is a *request*: the run-time idle gate can still
   degrade each fan-out when every worker is occupied. *)
let plan_decision ~est_cost =
  let jobs = Pool.jobs () in
  if est_cost < cost_threshold then seq "cost"
  else if jobs > 1 then { par = true; workers = jobs; reason = "pool-idle" }
  else seq "forced"

(* Run-time grant for one Exchange fan-out. [available] counts idle
   workers only: when zero, the partitions would just queue behind other
   queries' work (or behind each other), so running them in the calling
   thread is strictly cheaper. *)
let exchange_parallel pool ~workers =
  workers > 1 && Pool.size pool > 1 && Pool.available pool > 0
