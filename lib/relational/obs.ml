let now_s () = Unix.gettimeofday ()

(* The process-wide counters/timers/histograms below are shared across
   domains once queries run in parallel, so Counter is an atomic and the
   compound updates in Timer/Histogram take a per-instance mutex. *)

module Counter = struct
  type t = int Atomic.t

  let create () = Atomic.make 0

  let incr ?(by = 1) t =
    ignore (Atomic.fetch_and_add t by)

  let value t = Atomic.get t
  let reset t = Atomic.set t 0
end

module Timer = struct
  type t = { lock : Mutex.t; mutable total : float; mutable samples : int }

  let create () = { lock = Mutex.create (); total = 0.; samples = 0 }

  let add_s t s =
    Mutex.lock t.lock;
    t.total <- t.total +. s;
    t.samples <- t.samples + 1;
    Mutex.unlock t.lock

  let time t f =
    let t0 = now_s () in
    let finally () = add_s t (now_s () -. t0) in
    Fun.protect ~finally f

  let total_s t =
    Mutex.lock t.lock;
    let v = t.total in
    Mutex.unlock t.lock;
    v

  let total_ms t = total_s t *. 1000.

  let samples t =
    Mutex.lock t.lock;
    let v = t.samples in
    Mutex.unlock t.lock;
    v

  let reset t =
    Mutex.lock t.lock;
    t.total <- 0.;
    t.samples <- 0;
    Mutex.unlock t.lock
end

module Histogram = struct
  (* bucket i holds durations in [2^i, 2^(i+1)) microseconds *)
  let nbuckets = 40

  type t = {
    lock : Mutex.t;
    buckets : int array;
    mutable count : int;
    mutable max_s : float;
  }

  let create () =
    { lock = Mutex.create (); buckets = Array.make nbuckets 0; count = 0; max_s = 0. }

  let bucket_of_s s =
    let us = s *. 1e6 in
    if us < 1. then 0
    else min (nbuckets - 1) (int_of_float (Float.log2 us))

  let observe t s =
    let i = bucket_of_s s in
    Mutex.lock t.lock;
    t.buckets.(i) <- t.buckets.(i) + 1;
    t.count <- t.count + 1;
    if s > t.max_s then t.max_s <- s;
    Mutex.unlock t.lock

  let count t =
    Mutex.lock t.lock;
    let v = t.count in
    Mutex.unlock t.lock;
    v

  (* upper bound (seconds) of the bucket holding quantile q *)
  let quantile t q =
    Mutex.lock t.lock;
    let count = t.count and buckets = Array.copy t.buckets in
    Mutex.unlock t.lock;
    if count = 0 then 0.
    else begin
      let target =
        let x = int_of_float (Float.ceil (Float.of_int count *. q)) in
        max 1 (min count x)
      in
      let seen = ref 0 and result = ref 0. in
      (try
         Array.iteri
           (fun i n ->
             seen := !seen + n;
             if !seen >= target then begin
               result := Float.pow 2. (float_of_int (i + 1)) /. 1e6;
               raise Exit
             end)
           buckets
       with Exit -> ());
      !result
    end

  let to_string t =
    if count t = 0 then "empty"
    else begin
      Mutex.lock t.lock;
      let n = t.count and max_s = t.max_s in
      Mutex.unlock t.lock;
      Printf.sprintf "n=%d p50<=%.3fms p95<=%.3fms max=%.3fms" n
        (quantile t 0.5 *. 1000.) (quantile t 0.95 *. 1000.) (max_s *. 1000.)
    end

  let max_s t =
    Mutex.lock t.lock;
    let v = t.max_s in
    Mutex.unlock t.lock;
    v
end

(* ------------------------------------------------------------------ *)
(* Metric registry                                                     *)
(* ------------------------------------------------------------------ *)

type metric =
  | MCounter of Counter.t
  | MTimer of Timer.t
  | MHistogram of Histogram.t
  | MGauge of (unit -> int)

let registry_lock = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 32

let register name metric =
  Mutex.lock registry_lock;
  Hashtbl.replace registry name metric;
  Mutex.unlock registry_lock

let register_counter name c = register name (MCounter c)
let register_timer name t = register name (MTimer t)
let register_histogram name h = register name (MHistogram h)
let register_gauge name f = register name (MGauge f)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let dump_json () =
  Mutex.lock registry_lock;
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [] in
  Mutex.unlock registry_lock;
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  let section pred render =
    entries
    |> List.filter_map (fun (name, m) ->
        match pred m with
        | Some payload ->
          Some (Printf.sprintf "\"%s\": %s" (json_escape name) (render payload))
        | None -> None)
    |> String.concat ", "
  in
  let counters =
    section (function MCounter c -> Some (Counter.value c) | _ -> None)
      string_of_int
  in
  let gauges =
    section
      (function
        | MGauge f -> Some (try f () with _ -> 0)
        | _ -> None)
      string_of_int
  in
  let timers =
    section (function MTimer t -> Some t | _ -> None) (fun t ->
        Printf.sprintf "{\"total_ms\": %.3f, \"samples\": %d}" (Timer.total_ms t)
          (Timer.samples t))
  in
  let histograms =
    section (function MHistogram h -> Some h | _ -> None) (fun h ->
        Printf.sprintf
          "{\"count\": %d, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": \
           %.3f, \"max_ms\": %.3f}"
          (Histogram.count h)
          (Histogram.quantile h 0.5 *. 1000.)
          (Histogram.quantile h 0.95 *. 1000.)
          (Histogram.quantile h 0.99 *. 1000.)
          (Histogram.max_s h *. 1000.))
  in
  Printf.sprintf
    "{\"counters\": {%s}, \"gauges\": {%s}, \"timers\": {%s}, \"histograms\": \
     {%s}}"
    counters gauges timers histograms

(* ------------------------------------------------------------------ *)
(* Plan profiling                                                      *)
(* ------------------------------------------------------------------ *)

type op_stats = {
  mutable loops : int;
  mutable rows : int;
  mutable probes : int;
  mutable build_rows : int;
  mutable time_s : float;
}

(* Keyed by physical identity: the planner builds every node exactly once,
   and plans are small, so a linear scan with [==] is both correct (no
   accidental merging of structurally equal operators) and cheap. *)
type profile = (Plan.t * op_stats) list

let fresh () = { loops = 0; rows = 0; probes = 0; build_rows = 0; time_s = 0. }

let create plan = List.map (fun node -> (node, fresh ())) (Plan.descendants plan)

let find profile node =
  let rec go = function
    | [] -> None
    | (n, st) :: rest -> if n == node then Some st else go rest
  in
  go profile

(* Each element is a row *batch*, so the rows counter advances by the
   batch's live count. *)
let observed_batches ~live st seq =
  st.loops <- st.loops + 1;
  let rec go seq () =
    let t0 = now_s () in
    let step = seq () in
    st.time_s <- st.time_s +. (now_s () -. t0);
    match step with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (b, rest) ->
      st.rows <- st.rows + live b;
      Seq.Cons (b, go rest)
  in
  go seq

let annotation profile node =
  match find profile node with
  | None -> ""
  | Some st ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf
      (Printf.sprintf " (rows=%d loops=%d time=%.3fms" st.rows st.loops
         (st.time_s *. 1000.));
    if st.probes > 0 then
      Buffer.add_string buf (Printf.sprintf " probes=%d" st.probes);
    if st.build_rows > 0 then
      Buffer.add_string buf (Printf.sprintf " build=%d" st.build_rows);
    Buffer.add_char buf ')';
    Buffer.contents buf

let annotate profile plan = Plan.to_string ~annot:(annotation profile) plan

let total f profile = List.fold_left (fun acc (_, st) -> acc + f st) 0 profile

let total_rows profile = total (fun st -> st.rows) profile
let total_probes profile = total (fun st -> st.probes) profile
let total_build_rows profile = total (fun st -> st.build_rows) profile
