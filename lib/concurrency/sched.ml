(* Query scheduling: the plan-time cost gate.

   Every query runs on one domain. What the scheduler decides is where:
   a query whose root cost estimate is below [cost_threshold] runs
   inline on the calling thread (for the server, the reactor thread —
   microseconds, no hand-off); anything at or above it is dispatched
   off that thread, so one slow query never stalls other connections
   and CANCEL frames and deadlines stay live while it runs. *)

(* Cost is in the planner's unit ("rows touched"): roughly a full scan
   of a few tens of thousands of rows. *)
let cost_threshold = 50_000.

type lane = Inline | Dispatch

let lane ~est_cost = if est_cost < cost_threshold then Inline else Dispatch

let lane_name = function Inline -> "inline" | Dispatch -> "dispatch"
