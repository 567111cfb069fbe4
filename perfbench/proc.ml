(* Child processes, /proc readers and the file-system measures. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* the number in [field] of /proc/<pid>/status *)
let status_field pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let prefix = field ^ ":" in
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.starts_with ~prefix line ->
        Scanf.sscanf
          (String.sub line (String.length prefix)
             (String.length line - String.length prefix))
          " %d" Fun.id
      | _ -> go ()
    in
    go ()

let hwm_mib pid = float_of_int (status_field pid "VmHWM") /. 1024.

(* voluntary + involuntary context switches summed over the process's
   threads *)
let ctx_switches pid =
  let dir = Printf.sprintf "/proc/%s/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | tasks ->
    Array.fold_left
      (fun acc tid ->
        let st = Printf.sprintf "%s/task/%s" pid tid in
        acc
        + status_field st "voluntary_ctxt_switches"
        + status_field st "nonvoluntary_ctxt_switches")
      0 tasks

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc name -> acc + dir_bytes (Filename.concat path name))
      0 (Sys.readdir path)
  | _ -> 0
  | exception Unix.Unix_error _ -> 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755;
  path

(* A fixed CPU loop, timed: tells a run on a loaded host apart. *)
let cpu_loop_ms () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 30_000_000 do
    x := (!x * 1103515245 + i) land 0xFFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  (now () -. t0) *. 1000.

(* A fixed allocating loop, timed: a map of 100000 string keys built and
   dropped, so minor and major GC work and cache misses dominate. It
   tells memory-bound slowdowns apart, which [cpu_loop_ms] misses. *)
module Smap = Map.Make (String)

let alloc_loop_ms () =
  let t0 = now () in
  let m = ref Smap.empty in
  for i = 1 to 100_000 do
    m := Smap.add (string_of_int (i * 7919 mod 1_000_003)) i !m
  done;
  ignore (Sys.opaque_identity (Smap.cardinal !m));
  (now () -. t0) *. 1000.

(* ---------------- the [xomatiq serve] child ---------------- *)

type server = { pid : int; port : int }

let live = ref []

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname s with
  | Unix.ADDR_INET (_, port) -> port
  | _ -> failwith "free_port"

let stop srv =
  live := List.filter (fun p -> p <> srv.pid) !live;
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.02;
      reap ()
    | 0, _ ->
      (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] srv.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

let stop_all () = List.iter (fun pid -> stop { pid; port = 0 }) !live

let () = at_exit stop_all

(* Start [xomatiq serve] on a free loopback port with [args] naming its
   warehouse; [pool_pages] is the only setting the benchmark changes.
   [connect] waits until it answers. *)
let start ~cli ~log ?pool_pages args =
  let port = free_port () in
  let env =
    Array.append (Unix.environment ())
      (match pool_pages with
       | Some n -> [| Printf.sprintf "XOMATIQ_POOL_PAGES=%d" n |]
       | None -> [||])
  in
  let argv =
    Array.of_list
      ([ cli; "serve"; "--host"; "127.0.0.1"; "--port"; string_of_int port ]
       @ args)
  in
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Unix.create_process_env cli argv env Unix.stdin fd fd
  in
  live := pid :: !live;
  { pid; port }

let connect srv =
  Xserver.Client.connect ~timeout_s:60. ~retry_for_s:60. ~port:srv.port ()
