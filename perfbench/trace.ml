(* Spans recorded by the benchmark around its calls into each layer's
   public functions. Spans stay in memory and are written out once, when
   the traced run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  req : int;     (* the request, load or release it belongs to *)
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;
  mutable req : int;
}

let create () = { spans = []; next = 0; stack = []; req = 0 }

(* Later spans belong to a new request (or load, or release). *)
let new_request t = t.req <- t.req + 1

let span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; parent; req = t.req; t0; t1 } :: t.spans)
    f

(* Self time of every span (its duration minus the time its children
   cover; children of one span never overlap), summed and counted per
   span name. *)
let self_times t =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (s.t1 -. s.t0
           +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    t.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0
        -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      let total, n =
        Option.value ~default:(0., 0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (total +. self, n + 1))
    t.spans;
  by_name

(* total self seconds of the spans called [name] *)
let total t name =
  fst (Option.value ~default:(0., 0) (Hashtbl.find_opt (self_times t) name))

let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"req\": %d, \
         \"start\": %.6f, \"end\": %.6f}\n"
        s.id s.name s.parent s.req s.t0 s.t1)
    (List.rev t.spans)
