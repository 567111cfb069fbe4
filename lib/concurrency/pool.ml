(* Fixed-size domain pool: a mutex/condition-protected work queue served
   by [size - 1] resident worker domains. The missing slot is the
   caller: [await] runs queued tasks while it waits ("helping"), so a
   task that itself submits and awaits subtasks makes progress instead
   of deadlocking, and a pool of size 1 degenerates to inline
   execution. *)

type task = unit -> unit

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : task Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  mutable busy : int;  (* workers currently executing a task *)
  total : int;  (* workers + the helping caller *)
}

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  f_lock : Mutex.t;
  f_cond : Condition.t;
  mutable f_state : 'a state;
}

let size t = t.total

let try_pop t =
  Mutex.lock t.lock;
  let task = Queue.take_opt t.queue in
  Mutex.unlock t.lock;
  task

let worker_loop t () =
  let rec next () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.nonempty t.lock
    done;
    let task = Queue.take_opt t.queue in
    (match task with Some _ -> t.busy <- t.busy + 1 | None -> ());
    Mutex.unlock t.lock;
    match task with
    | Some task ->
      (* tasks are [run_task] closures and never raise *)
      task ();
      Mutex.lock t.lock;
      t.busy <- t.busy - 1;
      Mutex.unlock t.lock;
      next ()
    | None -> ()  (* stopping and drained *)
  in
  next ()

let create n =
  let total = max 1 n in
  let t =
    { lock = Mutex.create (); nonempty = Condition.create ();
      queue = Queue.create (); stopping = false; workers = []; busy = 0;
      total }
  in
  t.workers <- List.init (total - 1) (fun _ -> Domain.spawn (worker_loop t));
  t

let shutdown t =
  Mutex.lock t.lock;
  let ws = t.workers in
  t.stopping <- true;
  t.workers <- [];
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  List.iter Domain.join ws

let resolve fut state =
  Mutex.lock fut.f_lock;
  fut.f_state <- state;
  Condition.broadcast fut.f_cond;
  Mutex.unlock fut.f_lock

let run_task f fut () =
  match f () with
  | v -> resolve fut (Done v)
  | exception e -> resolve fut (Failed (e, Printexc.get_raw_backtrace ()))

let submit t f =
  let fut = { f_lock = Mutex.create (); f_cond = Condition.create (); f_state = Pending } in
  let task = run_task f fut in
  Mutex.lock t.lock;
  if t.stopping || t.total <= 1 then begin
    (* no workers: run inline so the future is always resolvable *)
    Mutex.unlock t.lock;
    task ()
  end
  else begin
    Queue.add task t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.lock
  end;
  fut

let rec await t fut =
  match fut.f_state with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending ->
    (match try_pop t with
     | Some task ->
       (* help: run someone's queued task, then re-check *)
       task ();
       await t fut
     | None ->
       (* the task is running on another domain; block until resolved *)
       Mutex.lock fut.f_lock;
       while fut.f_state = Pending do Condition.wait fut.f_cond fut.f_lock done;
       Mutex.unlock fut.f_lock;
       await t fut)

(* Idle worker domains: the fan-out headroom a new Exchange would
   actually get. Queued-but-unstarted tasks count against it — they will
   claim a worker before any partition submitted after them. Advisory
   (check-then-act, no reservation): a rare over-grant just means two
   fan-outs share the workers, which is the pre-adaptive behaviour. *)
let available t =
  Mutex.lock t.lock;
  let n = (t.total - 1) - t.busy - Queue.length t.queue in
  Mutex.unlock t.lock;
  max 0 n

let parallel_map t f xs =
  if t.total <= 1 then List.map f xs
  else begin
    let futs = List.map (fun x -> submit t (fun () -> f x)) xs in
    (* award in input order so the first failure (by input position) is
       the one re-raised — matching what sequential evaluation reports *)
    List.map (await t) futs
  end

(* ---------------- the process-global pool ---------------- *)

let clamp_jobs n = max 1 (min 64 n)

let default_jobs () =
  match Sys.getenv_opt "XOMATIQ_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> clamp_jobs n
     | _ -> clamp_jobs (Domain.recommended_domain_count ()))
  | None -> clamp_jobs (Domain.recommended_domain_count ())

(* The global pool is created lazily so processes that never go parallel
   never spawn domains. Guarded by a lock: the stress tests hammer
   queries from several domains at once. *)
let glock = Mutex.create ()
let gtarget = ref None      (* requested jobs; None = use default_jobs () *)
let gpool = ref None

let default_jobs_memo = lazy (default_jobs ())

(* The effective job count is read on every query (plan-cache key,
   session jobs sync, scheduling decisions), so it is mirrored into an
   atomic: readers never touch [glock]. 0 means "not computed yet". *)
let gjobs = Atomic.make 0

let effective_target target =
  match target with Some n -> n | None -> Lazy.force default_jobs_memo

let jobs () =
  match Atomic.get gjobs with
  | 0 ->
    Mutex.lock glock;
    let n = effective_target !gtarget in
    Atomic.set gjobs n;
    Mutex.unlock glock;
    n
  | n -> n

let get () =
  Mutex.lock glock;
  let target = effective_target !gtarget in
  let pool =
    match !gpool with
    | Some p when size p = target -> p
    | existing ->
      (match existing with Some p -> shutdown p | None -> ());
      let p = create target in
      gpool := Some p;
      p
  in
  Mutex.unlock glock;
  pool

(* Look, don't touch: the adaptive scheduler's Exchange gate asks "is
   there a pool with an idle worker" without forcing worker domains into
   existence — on a host without spare cores, resident idle domains tax
   every query through the stop-the-world GC rendezvous. *)
let peek () =
  Mutex.lock glock;
  let p = !gpool in
  Mutex.unlock glock;
  p

let set_jobs n =
  let n = clamp_jobs n in
  Mutex.lock glock;
  gtarget := Some n;
  Atomic.set gjobs n;
  (match !gpool with
   | Some p when size p <> n ->
     gpool := None;
     Mutex.unlock glock;
     shutdown p
   | _ -> Mutex.unlock glock)

let with_jobs n f =
  Mutex.lock glock;
  let saved = !gtarget in
  Mutex.unlock glock;
  set_jobs n;
  (* A scoped override is an explicit request for [n]-way parallelism
     right now (tests, benches): force the pool into existence so the
     adaptive Exchange gate — which only {!peek}s — can grant workers
     even on a single-core host. *)
  if clamp_jobs n > 1 then ignore (get ());
  let restore () =
    Mutex.lock glock;
    gtarget := saved;
    Atomic.set gjobs (effective_target saved);
    let stale =
      match !gpool with
      | Some p when size p <> effective_target saved ->
        gpool := None;
        Some p
      | _ -> None
    in
    Mutex.unlock glock;
    Option.iter shutdown stale
  in
  Fun.protect ~finally:restore f

(* Join worker domains on exit so the runtime never tears down while a
   worker holds the queue lock. *)
let () =
  at_exit (fun () ->
      Mutex.lock glock;
      let p = !gpool in
      gpool := None;
      Mutex.unlock glock;
      Option.iter shutdown p)
