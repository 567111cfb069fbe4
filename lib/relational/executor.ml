exception Runtime_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type ctx = {
  catalog : Catalog.t;
  params : Value.t array;
  obs : Obs.profile option;   (* per-operator stats, when profiling *)
  cancel : Cancel.t option;   (* cooperative per-query cancellation *)
  view : Table.snap option;   (* MVCC snapshot all table access reads at *)
}

module Key = struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    && (let ok = ref true in
        Array.iteri (fun i x -> if not (Value.equal x b.(i)) then ok := false) a;
        !ok)

  let hash k = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 k
end

module KeyTbl = Hashtbl.Make (Key)

(* Adaptive grant for Exchange fan-out: on top of the static shape
   checks (real partitions, a real pool), the scheduler's idle gate may
   degrade a fan-out to sequential in-thread execution when every worker
   is already occupied — queueing partitions behind other queries' work
   only adds latency. Sequential and parallel execution of the same
   Exchange are byte-identical; the counters make degradation visible in
   METRICS. *)
let m_par_granted = Obs.Counter.create ()
let m_par_degraded = Obs.Counter.create ()

let () =
  Obs.register_counter "exec.parallel_granted" m_par_granted;
  Obs.register_counter "exec.parallel_degraded" m_par_degraded

(* Which pool, if any, an Exchange fan-out may run on: one that some
   other call already created — or a fresh one, but only when the host
   has a spare core to run worker domains on: resident domains on a
   single-core host tax every query through the stop-the-world GC
   rendezvous without buying any parallelism. *)
let multicore = lazy (Domain.recommended_domain_count () > 1)

let exchange_pool ~workers : Conc.Pool.t option =
  if workers <= 1 || Conc.Pool.jobs () <= 1 then None
  else begin
    let candidate =
      match Conc.Pool.peek () with
      | Some _ as p -> p
      | None -> if Lazy.force multicore then Some (Conc.Pool.get ()) else None
    in
    match candidate with
    | Some pool when Conc.Sched.exchange_parallel pool ~workers ->
      Obs.Counter.incr m_par_granted;
      Some pool
    | _ ->
      Obs.Counter.incr m_par_degraded;
      None
  end

(* Build table of the hash join. When the join key is a
   single column that stayed unboxed on the build side, the table keys
   on raw ints so neither build nor probe ever allocates a Value. *)
type hj_tbl =
  | Hj_int of (int, int list) Hashtbl.t
  | Hj_gen of int list KeyTbl.t

(* SQL LIKE: % = any run, _ = any single char; a character preceded by
   the ESCAPE character (if any) matches itself literally. *)
let like_match ?escape ~pattern s =
  let pn = String.length pattern and sn = String.length s in
  (* memoized recursion over (pi, si) *)
  let memo = Hashtbl.create 16 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
      let r =
        if pi >= pn then si >= sn
        else
          match pattern.[pi] with
          | c when escape = Some c ->
            (* a trailing escape character matches nothing *)
            pi + 1 < pn && si < sn
            && s.[si] = pattern.[pi + 1]
            && go (pi + 2) (si + 1)
          | '%' -> go (pi + 1) si || (si < sn && go pi (si + 1))
          | '_' -> si < sn && go (pi + 1) (si + 1)
          | c -> si < sn && s.[si] = c && go (pi + 1) (si + 1)
      in
      Hashtbl.add memo (pi, si) r;
      r
  in
  go 0 0

(* ---------------- scalar semantics ---------------- *)

let numeric_binop op a b =
  let open Value in
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y ->
    (match op with
     | Sql_ast.Add -> Int (x + y)
     | Sql_ast.Sub -> Int (x - y)
     | Sql_ast.Mul -> Int (x * y)
     | Sql_ast.Div -> if y = 0 then Null else Int (x / y)
     | Sql_ast.Mod -> if y = 0 then Null else Int (x mod y)
     | _ -> assert false)
  | (Int _ | Float _), (Int _ | Float _) ->
    let f = function Int i -> float_of_int i | Float f -> f | _ -> assert false in
    let x = f a and y = f b in
    (match op with
     | Sql_ast.Add -> Float (x +. y)
     | Sql_ast.Sub -> Float (x -. y)
     | Sql_ast.Mul -> Float (x *. y)
     | Sql_ast.Div -> if y = 0. then Null else Float (x /. y)
     | Sql_ast.Mod -> if y = 0. then Null else Float (Float.rem x y)
     | _ -> assert false)
  | _ -> error "arithmetic on non-numeric values (%s, %s)"
           (Value.to_literal a) (Value.to_literal b)

let comparison_binop op a b =
  match Value.sql_compare a b with
  | None -> Value.Null
  | Some c ->
    let r = match op with
      | Sql_ast.Eq -> c = 0
      | Sql_ast.Neq -> c <> 0
      | Sql_ast.Lt -> c < 0
      | Sql_ast.Le -> c <= 0
      | Sql_ast.Gt -> c > 0
      | Sql_ast.Ge -> c >= 0
      | _ -> assert false
    in
    Value.Bool r

(* Kleene 3VL *)
let and3 a b =
  match a, b with
  | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
  | Value.Bool true, Value.Bool true -> Value.Bool true
  | _ -> Value.Null

let or3 a b =
  match a, b with
  | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
  | Value.Bool false, Value.Bool false -> Value.Bool false
  | _ -> Value.Null

let not3 = function
  | Value.Bool b -> Value.Bool (not b)
  | _ -> Value.Null

let as_string = function
  | Value.Null -> None
  | v -> Some (Value.to_string v)

let as_int name = function
  | Value.Int i -> i
  | Value.Float f when Float.is_integer f -> int_of_float f
  | v -> error "%s expects an integer, got %s" name (Value.to_literal v)

let scalar_fn name (args : Value.t list) =
  let str1 f =
    match args with
    | [ v ] -> (match as_string v with None -> Value.Null | Some s -> f s)
    | _ -> error "%s expects 1 argument" name
  in
  match name, args with
  | "LOWER", _ -> str1 (fun s -> Value.Text (String.lowercase_ascii s))
  | "UPPER", _ -> str1 (fun s -> Value.Text (String.uppercase_ascii s))
  | "LENGTH", _ -> str1 (fun s -> Value.Int (String.length s))
  | "TRIM", _ -> str1 (fun s -> Value.Text (String.trim s))
  | "LTRIM", _ ->
    str1 (fun s ->
        let i = ref 0 in
        while !i < String.length s && (s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
        Value.Text (String.sub s !i (String.length s - !i)))
  | "RTRIM", _ ->
    str1 (fun s ->
        let i = ref (String.length s) in
        while !i > 0 && (s.[!i - 1] = ' ' || s.[!i - 1] = '\t') do decr i done;
        Value.Text (String.sub s 0 !i))
  | "ABS", [ Value.Int i ] -> Value.Int (abs i)
  | "ABS", [ Value.Float f ] -> Value.Float (Float.abs f)
  | "ABS", [ Value.Null ] -> Value.Null
  | "ROUND", [ Value.Float f ] -> Value.Float (Float.round f)
  | "ROUND", [ Value.Int i ] -> Value.Int i
  | "ROUND", [ Value.Null ] -> Value.Null
  | "FLOOR", [ Value.Float f ] -> Value.Int (int_of_float (Float.floor f))
  | "FLOOR", [ Value.Int i ] -> Value.Int i
  | "CEIL", [ Value.Float f ] -> Value.Int (int_of_float (Float.ceil f))
  | "CEIL", [ Value.Int i ] -> Value.Int i
  | "SUBSTR", (subject :: start :: rest) ->
    (match as_string subject with
     | None -> Value.Null
     | Some s ->
       let n = String.length s in
       let start = as_int "SUBSTR" start in
       let start0 = if start > 0 then start - 1 else max 0 (n + start) in
       let len =
         match rest with
         | [] -> n - start0
         | [ l ] -> as_int "SUBSTR" l
         | _ -> error "SUBSTR expects 2 or 3 arguments"
       in
       let start0 = min (max start0 0) n in
       let len = min (max len 0) (n - start0) in
       Value.Text (String.sub s start0 len))
  | "INSTR", [ hay; needle ] ->
    (match as_string hay, as_string needle with
     | Some h, Some nd ->
       let hl = String.length h and nl = String.length nd in
       let rec find i =
         if i + nl > hl then 0
         else if String.sub h i nl = nd then i + 1
         else find (i + 1)
       in
       Value.Int (find 0)
     | _ -> Value.Null)
  | "REPLACE", [ subject; from_; to_ ] ->
    (match as_string subject, as_string from_, as_string to_ with
     | Some s, Some f, Some t when f <> "" ->
       let buf = Buffer.create (String.length s) in
       let fl = String.length f in
       let rec go i =
         if i >= String.length s then ()
         else if i + fl <= String.length s && String.sub s i fl = f then begin
           Buffer.add_string buf t;
           go (i + fl)
         end
         else begin
           Buffer.add_char buf s.[i];
           go (i + 1)
         end
       in
       go 0;
       Value.Text (Buffer.contents buf)
     | Some s, Some _, Some _ -> Value.Text s
     | _ -> Value.Null)
  | "COALESCE", args ->
    (try List.find (fun v -> v <> Value.Null) args with Not_found -> Value.Null)
  | "NULLIF", [ a; b ] -> if Value.equal a b then Value.Null else a
  | "TONUM", [ v ] ->
    (match v with
     | Value.Null -> Value.Null
     | Value.Int _ | Value.Float _ -> v
     | Value.Text s ->
       (match int_of_string_opt (String.trim s) with
        | Some i -> Value.Int i
        | None ->
          (match float_of_string_opt (String.trim s) with
           | Some f -> Value.Float f
           | None -> Value.Null))
     | Value.Bool b -> Value.Int (if b then 1 else 0))
  | "TOSTR", [ v ] ->
    (match v with Value.Null -> Value.Null | v -> Value.Text (Value.to_string v))
  | _, args -> error "unknown function %s/%d" name (List.length args)

(* ---------------- plans ---------------- *)

(* stat hooks; no-ops when not profiling *)
let probe = function
  | Some (s : Obs.op_stats) -> s.probes <- s.probes + 1
  | None -> ()

(* ---------------- structural merge core ----------------

   The stack-based interval-containment merge behind
   [Structural_join]. The int fast path works on
   structure-of-arrays keys (parallel [int array]s for doc / lo / hi /
   original index) so sorting permutes unboxed columns and the sweep
   allocates nothing per row; the generic path keeps
   (doc, lo, hi, idx) [Value.t] tuples. Both return the matched
   (interval_idx, point_idx) pairs as two parallel [int array]s in merge
   order. *)

let key_array_sorted cmp arr =
  let ok = ref true in
  for k = 1 to Array.length arr - 1 do
    if cmp arr.(k - 1) arr.(k) > 0 then ok := false
  done;
  !ok

(* Sequential or doc-range-chunked merge driver. Containment never
   crosses documents, so the merge parallelises over doc ranges; the
   caller's global pair sort keeps the output byte-identical at any
   worker count. Returns the per-chunk [merge_range] results in doc
   order. *)
let structural_merge_chunks ~par ~n_ivl ~n_pt ~doc_of_ivl
    ~doc_of_pt ~doc_cmp ~merge_range =
  match par with
  | None -> [ merge_range (0, n_ivl) (0, n_pt) ]
  | Some pool -> begin
    (* first point with doc >= d / doc > d *)
    let pt_bound ~after d =
      let lo_b = ref 0 and hi_b = ref n_pt in
      while !lo_b < !hi_b do
        let mid = (!lo_b + !hi_b) / 2 in
        let c = doc_cmp (doc_of_pt mid) d in
        if c < 0 || (c = 0 && after) then lo_b := mid + 1 else hi_b := mid
      done;
      !lo_b
    in
    (* cut the interval array into chunks of whole documents *)
    let jobs = max 2 (Conc.Pool.size pool) in
    let target = max 1 (n_ivl / jobs) in
    let cuts = ref [ 0 ] in
    let k = ref 0 in
    while !k < n_ivl do
      let next = min n_ivl (!k + target) in
      (* extend to the end of the document straddling the cut *)
      let e = ref next in
      while
        !e < n_ivl && doc_cmp (doc_of_ivl !e) (doc_of_ivl (next - 1)) = 0
      do
        incr e
      done;
      if !e < n_ivl then cuts := !e :: !cuts;
      k := !e
    done;
    let cuts = Array.of_list (List.rev (n_ivl :: !cuts)) in
    let chunks = ref [] in
    for c = Array.length cuts - 2 downto 0 do
      let a = cuts.(c) and b = cuts.(c + 1) in
      if b > a then
        chunks :=
          ( (a, b),
            ( pt_bound ~after:false (doc_of_ivl a),
              pt_bound ~after:true (doc_of_ivl (b - 1)) ) )
          :: !chunks
    done;
    match !chunks with
    | [] | [ _ ] -> [ merge_range (0, n_ivl) (0, n_pt) ]
    | chunks ->
      Conc.Pool.parallel_map pool (fun (ir, jr) -> merge_range ir jr) chunks
  end

(* Int fast path — the XML region encoding always lands here (doc_id /
   node_id / last_desc are INTEGER columns), so the sort and merge run
   on unboxed int comparisons with no SQL re-verification (int total
   order IS the SQL order). Keys arrive as parallel columns; when a sort
   is needed it goes through an index permutation so the caller's arrays
   (which may alias live batch columns) are never mutated. *)
let soa_sorted (doc : int array) (key : int array) n =
  let ok = ref true in
  for k = 1 to n - 1 do
    if doc.(k - 1) > doc.(k) || (doc.(k - 1) = doc.(k) && key.(k - 1) > key.(k))
    then ok := false
  done;
  !ok

let permute (p : int array) (a : int array) =
  Array.init (Array.length p) (fun k -> a.(p.(k)))

let structural_merge_int ~par ~lo_incl ~hi_incl
    ~ivl:(iv_doc, iv_lo, iv_hi, iv_idx) ~pt:(pt_doc, pt_pos, pt_idx) :
    int array * int array =
  let n_ivl = Array.length iv_doc and n_pt = Array.length pt_doc in
  let par = if n_ivl > 1 then par else None in
  let icmp (x : int) y = if x < y then -1 else if x > y then 1 else 0 in
  (* (doc, key) order, original index as final tie-break; inputs already
     in this order (e.g. a (doc_id, node_id) primary-key scan) skip the
     sort. The idx columns are monotone in position, so a positional
     tie-break is the same order. *)
  let iv_doc, iv_lo, iv_hi, iv_idx =
    if soa_sorted iv_doc iv_lo n_ivl then (iv_doc, iv_lo, iv_hi, iv_idx)
    else begin
      let p = Array.init n_ivl (fun k -> k) in
      Array.sort
        (fun a b ->
          let c = icmp iv_doc.(a) iv_doc.(b) in
          if c <> 0 then c
          else
            let c = icmp iv_lo.(a) iv_lo.(b) in
            if c <> 0 then c else icmp iv_idx.(a) iv_idx.(b))
        p;
      (permute p iv_doc, permute p iv_lo, permute p iv_hi, permute p iv_idx)
    end
  in
  let pt_doc, pt_pos, pt_idx =
    if soa_sorted pt_doc pt_pos n_pt then (pt_doc, pt_pos, pt_idx)
    else begin
      let p = Array.init n_pt (fun k -> k) in
      Array.sort
        (fun a b ->
          let c = icmp pt_doc.(a) pt_doc.(b) in
          if c <> 0 then c
          else
            let c = icmp pt_pos.(a) pt_pos.(b) in
            if c <> 0 then c else icmp pt_idx.(a) pt_idx.(b))
        p;
      (permute p pt_doc, permute p pt_pos, permute p pt_idx)
    end
  in
  let merge_range (i0, i1) (j0, j1) =
    (* growable pair output *)
    let cap0 = 64 in
    let out_i = ref (Array.make cap0 0) and out_j = ref (Array.make cap0 0) in
    let m = ref 0 in
    let push_pair a b =
      if !m = Array.length !out_i then begin
        let nc = 2 * !m in
        let a' = Array.make nc 0 and b' = Array.make nc 0 in
        Array.blit !out_i 0 a' 0 !m;
        Array.blit !out_j 0 b' 0 !m;
        out_i := a';
        out_j := b'
      end;
      !out_i.(!m) <- a;
      !out_j.(!m) <- b;
      incr m
    in
    (* open-interval stack as three parallel arrays; top (sp-1) is the
       innermost (latest-opened) interval. Depth never exceeds the
       chunk's interval count. *)
    let smax = max 1 (i1 - i0) in
    let st_lo = Array.make smax 0
    and st_hi = Array.make smax 0
    and st_ix = Array.make smax 0 in
    let sp = ref 0 in
    let cur_doc = ref 0 and have_doc = ref false in
    let i = ref i0 and j = ref j0 in
    while !j < j1 do
      let d_pt = pt_doc.(!j) and v_pt = pt_pos.(!j) in
      let push_next =
        !i < i1
        && (let d_iv = iv_doc.(!i) in
            d_iv < d_pt
            || (d_iv = d_pt
                && (let l_iv = iv_lo.(!i) in
                    l_iv < v_pt || (l_iv = v_pt && lo_incl))))
      in
      if push_next then begin
        let d_iv = iv_doc.(!i) and l_iv = iv_lo.(!i) in
        if not (!have_doc && !cur_doc = d_iv) then begin
          sp := 0;
          cur_doc := d_iv;
          have_doc := true
        end;
        (* ancestors that closed before this start can never hold a later
           position: drop them *)
        while !sp > 0 && st_hi.(!sp - 1) < l_iv do
          decr sp
        done;
        st_lo.(!sp) <- l_iv;
        st_hi.(!sp) <- iv_hi.(!i);
        st_ix.(!sp) <- iv_idx.(!i);
        incr sp;
        incr i
      end
      else begin
        if !have_doc && !cur_doc = d_pt then begin
          while
            !sp > 0
            && (let h = st_hi.(!sp - 1) in
                h < v_pt || (h = v_pt && not hi_incl))
          do
            decr sp
          done;
          let jidx = pt_idx.(!j) in
          for k = !sp - 1 downto 0 do
            let l = st_lo.(k) and h = st_hi.(k) in
            if (l < v_pt || (l = v_pt && lo_incl))
               && (v_pt < h || (v_pt = h && hi_incl)) then
              push_pair st_ix.(k) jidx
          done
        end;
        incr j
      end
    done;
    (Array.sub !out_i 0 !m, Array.sub !out_j 0 !m)
  in
  let parts =
    structural_merge_chunks ~par ~n_ivl ~n_pt
      ~doc_of_ivl:(fun k -> iv_doc.(k))
      ~doc_of_pt:(fun k -> pt_doc.(k))
      ~doc_cmp:icmp ~merge_range
  in
  match parts with
  | [ one ] -> one
  | parts ->
    let total = List.fold_left (fun n (a, _) -> n + Array.length a) 0 parts in
    let ai = Array.make total 0 and aj = Array.make total 0 in
    let off = ref 0 in
    List.iter
      (fun (a, b) ->
        let n = Array.length a in
        Array.blit a 0 ai !off n;
        Array.blit b 0 aj !off n;
        off := !off + n)
      parts;
    (ai, aj)

(* Generic path: arbitrary comparable keys. Merge order uses the total
   order; a match additionally requires the SQL comparison semantics at
   emission. *)
let structural_merge_generic ~par ~lo_incl ~hi_incl
    (intervals : (Value.t * Value.t * Value.t * int) array)
    (points : (Value.t * Value.t * int) array) : int array * int array =
  let n_ivl = Array.length intervals and n_pt = Array.length points in
  let par = if n_ivl > 1 then par else None in
  let cmp_ivl (d1, l1, _, i1) (d2, l2, _, i2) =
    let c = Value.compare_total d1 d2 in
    if c <> 0 then c
    else
      let c = Value.compare_total l1 l2 in
      if c <> 0 then c else compare (i1 : int) i2
  in
  let cmp_pt (d1, v1, j1) (d2, v2, j2) =
    let c = Value.compare_total d1 d2 in
    if c <> 0 then c
    else
      let c = Value.compare_total v1 v2 in
      if c <> 0 then c else compare (j1 : int) j2
  in
  if not (key_array_sorted cmp_ivl intervals) then Array.sort cmp_ivl intervals;
  if not (key_array_sorted cmp_pt points) then Array.sort cmp_pt points;
  let sql_before a b incl =
    match Value.sql_compare a b with
    | Some c -> c < 0 || (c = 0 && incl)
    | None -> false
  in
  (* one merged sweep over intervals[i0,i1) and points[j0,j1): intervals
     enter the stack when the sweep passes their lower bound, leave when
     it passes their upper bound; every surviving stack entry at a point
     is a candidate ancestor *)
  let merge_range (i0, i1) (j0, j1) =
    let pairs = ref [] in
    let stack = ref [] in (* innermost (latest-opened) first *)
    let cur_doc = ref Value.Null in
    let have_doc = ref false in
    let i = ref i0 and j = ref j0 in
    while !j < j1 do
      let d_pt, v_pt, jidx = points.(!j) in
      let push_next =
        !i < i1
        && (let d_iv, l_iv, _, _ = intervals.(!i) in
            let c = Value.compare_total d_iv d_pt in
            c < 0
            || (c = 0
                && (let ck = Value.compare_total l_iv v_pt in
                    ck < 0 || (ck = 0 && lo_incl))))
      in
      if push_next then begin
        let d_iv, l_iv, h_iv, iidx = intervals.(!i) in
        incr i;
        if not (!have_doc && Value.compare_total !cur_doc d_iv = 0) then begin
          stack := [];
          cur_doc := d_iv;
          have_doc := true
        end;
        (* ancestors that closed before this start can never hold a later
           position: drop them *)
        let rec expire = function
          | (_, h, _) :: rest when Value.compare_total h l_iv < 0 ->
            expire rest
          | s -> s
        in
        stack := (l_iv, h_iv, iidx) :: expire !stack
      end
      else begin
        incr j;
        if !have_doc && Value.compare_total !cur_doc d_pt = 0
           && Value.sql_compare !cur_doc d_pt = Some 0 then begin
          let rec expire = function
            | (_, h, _) :: rest
              when (let c = Value.compare_total h v_pt in
                    c < 0 || (c = 0 && not hi_incl)) ->
              expire rest
            | s -> s
          in
          stack := expire !stack;
          List.iter
            (fun (l, h, iidx) ->
              if sql_before l v_pt lo_incl && sql_before v_pt h hi_incl then
                pairs := (iidx, jidx) :: !pairs)
            !stack
        end
      end
    done;
    List.rev !pairs
  in
  let pairs =
    List.concat
      (structural_merge_chunks ~par ~n_ivl ~n_pt
         ~doc_of_ivl:(fun k -> let d, _, _, _ = intervals.(k) in d)
         ~doc_of_pt:(fun k -> let d, _, _ = points.(k) in d)
         ~doc_cmp:Value.compare_total ~merge_range)
  in
  let m = List.length pairs in
  let ai = Array.make m 0 and aj = Array.make m 0 in
  List.iteri
    (fun k (a, b) ->
      ai.(k) <- a;
      aj.(k) <- b)
    pairs;
  (ai, aj)

(* Dispatch on key representation: when every key is an Int (the XML
   region encoding), run the unboxed merge. *)
let structural_pairs ~par ~lo_incl ~hi_incl intervals points =
  let int_keys =
    Array.for_all
      (fun (d, l, h, _) ->
        match d, l, h with
        | Value.Int _, Value.Int _, Value.Int _ -> true
        | _ -> false)
      intervals
    && Array.for_all
         (fun (d, v, _) ->
           match d, v with Value.Int _, Value.Int _ -> true | _ -> false)
         points
  in
  if int_keys then begin
    let n = Array.length intervals in
    let iv_doc = Array.make n 0
    and iv_lo = Array.make n 0
    and iv_hi = Array.make n 0
    and iv_idx = Array.make n 0 in
    Array.iteri
      (fun k (d, l, h, i) ->
        (match d, l, h with
         | Value.Int d, Value.Int l, Value.Int h ->
           iv_doc.(k) <- d;
           iv_lo.(k) <- l;
           iv_hi.(k) <- h
         | _ -> assert false);
        iv_idx.(k) <- i)
      intervals;
    let np = Array.length points in
    let pt_doc = Array.make np 0
    and pt_pos = Array.make np 0
    and pt_idx = Array.make np 0 in
    Array.iteri
      (fun k (d, v, j) ->
        (match d, v with
         | Value.Int d, Value.Int v ->
           pt_doc.(k) <- d;
           pt_pos.(k) <- v
         | _ -> assert false);
        pt_idx.(k) <- j)
      points;
    structural_merge_int ~par ~lo_incl ~hi_incl
      ~ivl:(iv_doc, iv_lo, iv_hi, iv_idx)
      ~pt:(pt_doc, pt_pos, pt_idx)
  end
  else structural_merge_generic ~par ~lo_incl ~hi_incl intervals points

(* Re-merge matched pairs to the deterministic left-major order of the
   equivalent nested-loop/hash plan: two stable counting passes (by
   right index, then by left) — O(pairs + rows), no comparator. *)
let structural_lr_pairs ~interval_on_left ~n_left ~n_right (pi, pj) =
  let l0, r0 = if interval_on_left then (pi, pj) else (pj, pi) in
  let m = Array.length l0 in
  if m = 0 then ([||], [||])
  else begin
    let pass (l : int array) (r : int array) (key : int array) bound =
      let pos = Array.make (bound + 1) 0 in
      for k = 0 to m - 1 do
        pos.(key.(k)) <- pos.(key.(k)) + 1
      done;
      let acc = ref 0 in
      for v = 0 to bound do
        let c = pos.(v) in
        pos.(v) <- !acc;
        acc := !acc + c
      done;
      let l' = Array.make m 0 and r' = Array.make m 0 in
      for k = 0 to m - 1 do
        let p = pos.(key.(k)) in
        pos.(key.(k)) <- p + 1;
        l'.(p) <- l.(k);
        r'.(p) <- r.(k)
      done;
      (l', r')
    in
    let l1, r1 = pass l0 r0 r0 (n_right - 1) in
    let l2, r2 = pass l1 r1 l1 (n_left - 1) in
    (l2, r2)
  end

(* The planner only marks big inputs with Exchange, so that is the
   go-parallel signal for the structural merge. *)
let structural_exchange_pool (left : Plan.t) (right : Plan.t) =
  match left, right with
  | Plan.Exchange { workers; _ }, _ | _, Plan.Exchange { workers; _ } ->
    exchange_pool ~workers
  | _ -> None

(* ---------------- batch executor ----------------

   Operators exchange [Batch.t] column batches. [eval] works on one
   boxed row; the subplans it reaches (IN, EXISTS and scalar subqueries)
   run through [run_batches] too, so [eval] and the operators form one
   recursive group. *)

(* Cancellation at batch granularity: a fired token aborts within one
   batch pull. *)
let guarded_batches token (seq : Batch.t Seq.t) =
  let rec go seq () =
    Cancel.check token;
    match seq () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (b, rest) -> Seq.Cons (b, go rest)
  in
  go seq

(* Lazily re-chunk a row stream into dense batches of at most
   [Batch.max_rows] rows; empty inputs yield no batches (a zero-row
   batch is never emitted). *)
let batches_of_rows ~arity (rows : Value.t array Seq.t) : Batch.t Seq.t =
  let rec go rows () =
    match rows () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (r0, rest) ->
      let buf = ref [ r0 ] and n = ref 1 in
      let rest = ref rest in
      (try
         while !n < Batch.max_rows do
           match !rest () with
           | Seq.Nil ->
             rest := Seq.empty;
             raise Exit
           | Seq.Cons (r, tl) ->
             buf := r :: !buf;
             incr n;
             rest := tl
         done
       with Exit -> ());
      let arr = Array.of_list (List.rev !buf) in
      Seq.Cons (Batch.of_rows ~arity arr, go !rest)
  in
  go rows

(* Narrow a batch to the surviving physical rows (accumulated in reverse
   while scanning); [None] when nothing survives, the original batch
   when everything does. *)
let narrow_batch b rev_kept n =
  if n = 0 then None
  else if n = Batch.live b then Some b
  else begin
    let sel = Array.make n 0 in
    let k = ref (n - 1) in
    List.iter
      (fun r ->
        sel.(!k) <- r;
        decr k)
      rev_kept;
    Some { b with Batch.sel = Some sel }
  end

(* Compile a filter into a column-at-a-time kernel, [None] when the
   shape doesn't decompose column-wise. Truthiness of Kleene AND/OR does
   decompose ([is_truthy (a AND b) = is_truthy a && is_truthy b], same
   for OR); NOT does not ([NOT NULL] is [NULL]), nor do arbitrary
   expressions — those fall back to row-at-a-time [eval]. Comparisons of
   an unboxed column against an Int constant run on raw ints (the SQL
   order on Int IS the int order); every other operand shape defers to
   [comparison_binop], which never raises, so kernels preserve
   [eval]'s error behaviour exactly (only the column-bounds check can
   raise, and it fires per batch — i.e. only when at least one row
   exists, just as [eval] would on the first row). *)
let vec_kernel ctx (e : Plan.cexpr) : (Batch.t -> int -> bool) option =
  let const_of (e : Plan.cexpr) =
    match e with
    | CLit v -> Some v
    | CParam i when i >= 0 && i < Array.length ctx.params ->
      Some ctx.params.(i)
    | _ -> None
  in
  let col b i =
    if i < 0 || i >= Batch.arity b then error "column slot %d out of range" i
    else b.Batch.cols.(i)
  in
  let cmp_const op i v b =
    match col b i, v with
    | Batch.I a, Value.Int k ->
      (match op with
       | Sql_ast.Eq -> fun r -> a.(r) = k
       | Sql_ast.Neq -> fun r -> a.(r) <> k
       | Sql_ast.Lt -> fun r -> a.(r) < k
       | Sql_ast.Le -> fun r -> a.(r) <= k
       | Sql_ast.Gt -> fun r -> a.(r) > k
       | Sql_ast.Ge -> fun r -> a.(r) >= k
       | _ -> assert false)
    | Batch.I a, _ ->
      fun r -> Value.is_truthy (comparison_binop op (Value.Int a.(r)) v)
    | Batch.V a, _ -> fun r -> Value.is_truthy (comparison_binop op a.(r) v)
  in
  let cmp_cols op i j b =
    match col b i, col b j with
    | Batch.I x, Batch.I y ->
      (* two unboxed columns compare on raw ints — this is the region
         containment predicate (node_id vs. interval bounds) shape *)
      (match op with
       | Sql_ast.Eq -> fun r -> x.(r) = y.(r)
       | Sql_ast.Neq -> fun r -> x.(r) <> y.(r)
       | Sql_ast.Lt -> fun r -> x.(r) < y.(r)
       | Sql_ast.Le -> fun r -> x.(r) <= y.(r)
       | Sql_ast.Gt -> fun r -> x.(r) > y.(r)
       | Sql_ast.Ge -> fun r -> x.(r) >= y.(r)
       | _ -> assert false)
    | cx, cy ->
      let get c r =
        match c with Batch.I a -> Value.Int a.(r) | Batch.V a -> a.(r)
      in
      fun r -> Value.is_truthy (comparison_binop op (get cx r) (get cy r))
  in
  let flip = function
    | Sql_ast.Lt -> Sql_ast.Gt
    | Sql_ast.Gt -> Sql_ast.Lt
    | Sql_ast.Le -> Sql_ast.Ge
    | Sql_ast.Ge -> Sql_ast.Le
    | op -> op
  in
  let rec kern (e : Plan.cexpr) =
    match const_of e with
    | Some v ->
      let t = Value.is_truthy v in
      Some (fun _ _ -> t)
    | None -> (
      match e with
      | CCol i ->
        Some
          (fun b ->
            match col b i with
            | Batch.I _ -> fun _ -> false (* is_truthy (Int _) = false *)
            | Batch.V a -> fun r -> Value.is_truthy a.(r))
      | CBinop
          ( ((Sql_ast.Eq | Sql_ast.Neq | Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt
             | Sql_ast.Ge) as op),
            a,
            b ) -> (
        match a, const_of b with
        | CCol i, Some v -> Some (cmp_const op i v)
        | _ -> (
          match const_of a, b with
          | Some v, CCol i -> Some (cmp_const (flip op) i v)
          | _ -> (
            match a, b with
            | CCol i, CCol j -> Some (cmp_cols op i j)
            | _ -> None)))
      | CBinop (Sql_ast.And, a, b) -> (
        match kern a, kern b with
        | Some ka, Some kb ->
          Some
            (fun bt ->
              let pa = ka bt in
              let pb = kb bt in
              fun r -> pa r && pb r)
        | _ -> None)
      | CBinop (Sql_ast.Or, a, b) -> (
        match kern a, kern b with
        | Some ka, Some kb ->
          Some
            (fun bt ->
              let pa = ka bt in
              let pb = kb bt in
              fun r -> pa r || pb r)
        | _ -> None)
      | CIs_null { subject = CCol i; negated } ->
        Some
          (fun b ->
            match col b i with
            | Batch.I _ -> fun _ -> negated
            | Batch.V a -> fun r -> a.(r) = Value.Null <> negated)
      | CBetween { subject = CCol i; low; high; negated = false } -> (
        match const_of low, const_of high with
        | Some lo, Some hi ->
          Some
            (fun b ->
              let pl = cmp_const Sql_ast.Ge i lo b in
              let ph = cmp_const Sql_ast.Le i hi b in
              fun r -> pl r && ph r)
        | _ -> None)
      | _ -> None)
  in
  kern e

let rec eval ctx row (e : Plan.cexpr) : Value.t =
  match e with
  | CLit v -> v
  | CCol i ->
    if i < 0 || i >= Array.length row then error "column slot %d out of range" i
    else row.(i)
  | CParam i ->
    if i < 0 || i >= Array.length ctx.params then error "parameter slot %d out of range" i
    else ctx.params.(i)
  | CBinop (op, a, b) ->
    (match op with
     | Add | Sub | Mul | Div | Mod -> numeric_binop op (eval ctx row a) (eval ctx row b)
     | Concat ->
       (match eval ctx row a, eval ctx row b with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | va, vb -> Value.Text (Value.to_string va ^ Value.to_string vb))
     | And -> and3 (eval ctx row a) (eval ctx row b)
     | Or -> or3 (eval ctx row a) (eval ctx row b)
     | Eq | Neq | Lt | Le | Gt | Ge ->
       comparison_binop op (eval ctx row a) (eval ctx row b))
  | CUnop (Neg, e) ->
    (match eval ctx row e with
     | Value.Int i -> Value.Int (-i)
     | Value.Float f -> Value.Float (-.f)
     | Value.Null -> Value.Null
     | v -> error "cannot negate %s" (Value.to_literal v))
  | CUnop (Not, e) -> not3 (eval ctx row e)
  | CFn (name, args) -> scalar_fn name (List.map (eval ctx row) args)
  | CLike { subject; pattern; escape; negated } ->
    (match eval ctx row subject, eval ctx row pattern with
     | Value.Null, _ | _, Value.Null -> Value.Null
     | s, p ->
       (* SQL semantics: a NULL escape makes the whole predicate NULL;
          a non-NULL escape must be a single character *)
       let esc = Option.map (eval ctx row) escape in
       (match esc with
        | Some Value.Null -> Value.Null
        | _ ->
          let escape =
            match esc with
            | None -> None
            | Some v ->
              let e = Value.to_string v in
              if String.length e = 1 then Some e.[0]
              else error "ESCAPE expression must be a single character, got %S" e
          in
          let r =
            like_match ?escape ~pattern:(Value.to_string p) (Value.to_string s)
          in
          Value.Bool (if negated then not r else r)))
  | CIn_list { subject; candidates; negated } ->
    let v = eval ctx row subject in
    if v = Value.Null then Value.Null
    else begin
      let found = ref false and saw_null = ref false in
      List.iter
        (fun c ->
          let cv = eval ctx row c in
          if cv = Value.Null then saw_null := true
          else if Value.equal v cv then found := true)
        candidates;
      if !found then Value.Bool (not negated)
      else if !saw_null then Value.Null
      else Value.Bool negated
    end
  | CIs_null { subject; negated } ->
    let isnull = eval ctx row subject = Value.Null in
    Value.Bool (if negated then not isnull else isnull)
  | CBetween { subject; low; high; negated } ->
    let v = eval ctx row subject in
    let lo = comparison_binop Sql_ast.Ge v (eval ctx row low) in
    let hi = comparison_binop Sql_ast.Le v (eval ctx row high) in
    let r = and3 lo hi in
    if negated then not3 r else r
  | CCase { branches; else_ } ->
    let rec pick = function
      | [] -> (match else_ with Some e -> eval ctx row e | None -> Value.Null)
      | (cond, result) :: rest ->
        if Value.is_truthy (eval ctx row cond) then eval ctx row result else pick rest
    in
    pick branches
  | CIn_plan { subject; plan; negated } ->
    let v = eval ctx row subject in
    if v = Value.Null then Value.Null
    else begin
      let found = ref false and saw_null = ref false in
      Seq.iter
        (fun r ->
          let cv = if Array.length r = 0 then Value.Null else r.(0) in
          if cv = Value.Null then saw_null := true
          else if Value.equal v cv then found := true)
        (run_sub ctx row plan);
      if !found then Value.Bool (not negated)
      else if !saw_null then Value.Null
      else Value.Bool negated
    end
  | CExists_plan { plan; negated } ->
    let nonempty = not (Seq.is_empty (run_sub ctx row plan)) in
    Value.Bool (if negated then not nonempty else nonempty)
  | CScalar_plan plan ->
    (match (run_sub ctx row plan) () with
     | Seq.Nil -> Value.Null
     | Seq.Cons (r, rest) ->
       (match rest () with
        | Seq.Nil -> if Array.length r = 0 then Value.Null else r.(0)
        | Seq.Cons _ -> error "scalar subquery returned more than one row"))

(* A subplan sees the current outer row as its parameter vector, appended
   after the parameters already in scope (for doubly-nested correlation the
   planner numbers slots accordingly). *)
and run_sub ctx outer_row plan =
  Batch.to_row_seq
    (run_batches { ctx with params = Array.append ctx.params outer_row } plan)

and truthy ctx row = function
  | None -> true
  | Some f -> Value.is_truthy (eval ctx row f)

and scan_table ctx name =
  match Catalog.find_table ctx.catalog name with
  | Some t -> t
  | None -> error "no such table %S" name

and run_aggregate ctx group_by aggs (input : Value.t array Seq.t) =
  let module Acc = struct
    type t = {
      mutable count : int;              (* rows where arg is non-null (or all rows for COUNT star) *)
      mutable sum_i : int;
      mutable sum_f : float;
      mutable saw_float : bool;
      mutable min_v : Value.t;
      mutable max_v : Value.t;
      mutable distinct_seen : unit KeyTbl.t option;
    }
  end in
  let make_acc (spec : Plan.agg_spec) =
    { Acc.count = 0; sum_i = 0; sum_f = 0.; saw_float = false;
      min_v = Value.Null; max_v = Value.Null;
      distinct_seen = if spec.agg_distinct then Some (KeyTbl.create 16) else None }
  in
  let update (spec : Plan.agg_spec) (acc : Acc.t) row =
    let v = match spec.agg_arg with
      | None -> Value.Bool true  (* COUNT star counts every row *)
      | Some e -> eval ctx row e
    in
    let count_it =
      match spec.agg_arg with
      | None -> true
      | Some _ ->
        if v = Value.Null then false
        else begin
          match acc.distinct_seen with
          | Some seen ->
            let k = [| v |] in
            if KeyTbl.mem seen k then false
            else begin
              KeyTbl.add seen k ();
              true
            end
          | None -> true
        end
    in
    if count_it then begin
      acc.count <- acc.count + 1;
      (match v with
       | Value.Int i ->
         acc.sum_i <- acc.sum_i + i;
         acc.sum_f <- acc.sum_f +. float_of_int i
       | Value.Float f ->
         acc.saw_float <- true;
         acc.sum_f <- acc.sum_f +. f
       | _ -> ());
      if acc.min_v = Value.Null || Value.compare_total v acc.min_v < 0 then acc.min_v <- v;
      if acc.max_v = Value.Null || Value.compare_total v acc.max_v > 0 then acc.max_v <- v
    end
  in
  let finish (spec : Plan.agg_spec) (acc : Acc.t) =
    match spec.agg_fn with
    | Sql_ast.Count -> Value.Int acc.count
    | Sql_ast.Sum ->
      if acc.count = 0 then Value.Null
      else if acc.saw_float then Value.Float acc.sum_f
      else Value.Int acc.sum_i
    | Sql_ast.Avg ->
      if acc.count = 0 then Value.Null
      else Value.Float (acc.sum_f /. float_of_int acc.count)
    | Sql_ast.Min -> acc.min_v
    | Sql_ast.Max -> acc.max_v
  in
  let groups : (Value.t array * Acc.t array) KeyTbl.t = KeyTbl.create 64 in
  let order = ref [] in
  Seq.iter
    (fun row ->
      let key = Array.map (eval ctx row) group_by in
      let _, accs =
        match KeyTbl.find_opt groups key with
        | Some entry -> entry
        | None ->
          let entry = (key, Array.map make_acc aggs) in
          KeyTbl.add groups key entry;
          order := key :: !order;
          entry
      in
      Array.iteri (fun i spec -> update spec accs.(i) row) aggs)
    input;
  let keys_in_order = List.rev !order in
  let emit key =
    let key_vals, accs = KeyTbl.find groups key in
    Array.append key_vals (Array.mapi (fun i spec -> finish spec accs.(i)) aggs)
  in
  if group_by = [||] && keys_in_order = [] then
    (* global aggregate over an empty input still yields one row *)
    Seq.return (Array.map (fun spec -> finish spec (make_acc spec)) aggs)
  else List.to_seq (List.map emit keys_in_order)

(* Filter a batch stream, preferring a compiled kernel and attaching a
   selection vector instead of copying survivors. *)
and apply_filter ctx f (bs : Batch.t Seq.t) : Batch.t Seq.t =
  let kern = vec_kernel ctx f in
  Seq.filter_map
    (fun b ->
      let pred =
        match kern with
        | Some k -> k b
        | None -> fun r -> Value.is_truthy (eval ctx (Batch.row b r) f)
      in
      let kept = ref [] and n = ref 0 in
      Batch.iter_live
        (fun r ->
          if pred r then begin
            kept := r :: !kept;
            incr n
          end)
        b;
      narrow_batch b !kept !n)
    bs

and run_batches ctx (plan : Plan.t) : Batch.t Seq.t =
  let bs =
    match ctx.obs with
    | None -> run_batches_raw ctx None plan
    | Some profile -> (
      match Obs.find profile plan with
      | None -> run_batches_raw ctx None plan
      | Some st ->
        Obs.observed_batches ~live:Batch.live st
          (run_batches_raw ctx (Some st) plan))
  in
  match ctx.cancel with
  | None -> bs
  | Some token -> guarded_batches token bs

and run_batches_raw ctx st (plan : Plan.t) : Batch.t Seq.t =
  match plan with
  | Single_row -> Seq.return { Batch.len = 1; cols = [||]; sel = None }
  | Seq_scan { table; filter; part } ->
    let t = scan_table ctx table in
    let rows =
      match ctx.view, part with
      | None, None -> Seq.map snd (Table.scan t)
      | None, Some (i, n) -> Seq.map snd (Table.scan_part t ~index:i ~parts:n)
      | Some snap, None -> Seq.map snd (Table.scan_at t snap)
      | Some snap, Some (i, n) ->
        Seq.map snd (Table.scan_part_at t snap ~index:i ~parts:n)
    in
    let bs = batches_of_rows ~arity:(Schema.arity (Table.schema t)) rows in
    (match filter with None -> bs | Some f -> apply_filter ctx f bs)
  | Index_lookup { table; index; key; filter } ->
    let t = scan_table ctx table in
    let idx =
      match Table.find_index t index with
      | Some i -> i
      | None -> error "no such index %S on table %S" index table
    in
    let arity = Schema.arity (Table.schema t) in
    fun () ->
      let keyv = Array.map (eval ctx [||]) key in
      probe st;
      let rows =
        match ctx.view with
        | None ->
          List.filter_map
            (fun id ->
              match Table.get t id with
              | Some row when truthy ctx row filter -> Some row
              | _ -> None)
            (Index.lookup idx keyv)
        | Some snap ->
          List.filter
            (fun row -> truthy ctx row filter)
            (Table.lookup_at t snap idx keyv)
      in
      (* the lookup result is already fully materialised, so it ships as
         one dense batch: downstream consolidation (structural join,
         concat) reuses it without another copy *)
      (match rows with
       | [] -> Seq.empty ()
       | rows ->
         Seq.return (Batch.of_rows ~arity (Array.of_list rows)) ())
  | Index_range { table; index; lo; hi; filter } ->
    let t = scan_table ctx table in
    let idx =
      match Table.find_index t index with
      | Some i -> i
      | None -> error "no such index %S on table %S" index table
    in
    let arity = Schema.arity (Table.schema t) in
    fun () ->
      let bound =
        Option.map (fun (k, incl) -> (Array.map (eval ctx [||]) k, incl))
      in
      probe st;
      let rows =
        match ctx.view with
        | None ->
          Seq.filter_map
            (fun id ->
              match Table.get t id with
              | Some row when truthy ctx row filter -> Some row
              | _ -> None)
            (Index.range ?lo:(bound lo) ?hi:(bound hi) idx)
        | Some snap ->
          List.to_seq
            (List.filter
               (fun row -> truthy ctx row filter)
               (Table.range_at t snap idx ?lo:(bound lo) ?hi:(bound hi) ()))
      in
      (batches_of_rows ~arity rows) ()
  | Filter (f, input) -> apply_filter ctx f (run_batches ctx input)
  | Project
      ( exprs,
        Structural_join
          { left; right; interval_on_left; left_doc; right_doc; lo; hi; pos;
            lo_incl; hi_incl; cond = None; right_arity = _ } )
    when ctx.obs = None
         && Array.for_all
              (function Plan.CCol i -> i >= 0 | _ -> false)
              exprs ->
    (* late materialisation: a pure column projection sitting directly on
       a structural join gathers only the columns it keeps. The join
       output is typically much wider than the projection (the
       accumulated binding tuple vs. the two returned fields), so
       skipping the full append_cols gather saves the dominant copy.
       Profiled runs keep the unfused path so per-operator attribution
       in EXPLAIN ANALYZE stays meaningful. *)
    fun () ->
      let lB, rB, la, _ra, lidx, ridx =
        batch_sj_pairs ctx st ~left ~right ~interval_on_left ~left_doc
          ~right_doc ~lo ~hi ~pos ~lo_incl ~hi_incl
      in
      let total = Array.length lidx in
      if total = 0 then Seq.empty ()
      else
        let one = function
          | Plan.CCol i when i < la -> (
            match lB.Batch.cols.(i) with
            | Batch.I a -> Batch.I (Array.map (fun k -> a.(k)) lidx)
            | Batch.V a -> Batch.V (Array.map (fun k -> a.(k)) lidx))
          | Plan.CCol i when i - la < Array.length rB.Batch.cols -> (
            match rB.Batch.cols.(i - la) with
            | Batch.I a -> Batch.I (Array.map (fun k -> a.(k)) ridx)
            | Batch.V a -> Batch.V (Array.map (fun k -> a.(k)) ridx))
          | Plan.CCol i -> error "column slot %d out of range" i
          | _ -> assert false
        in
        Seq.return
          { Batch.len = total; cols = Array.map one exprs; sel = None }
          ()
  | Project (exprs, input) ->
    Seq.map
      (fun b ->
        let arity_in = Batch.arity b in
        let all_cols =
          Array.for_all
            (function Plan.CCol i -> i >= 0 && i < arity_in | _ -> false)
            exprs
        in
        if all_cols then
          (* pure column selection: rebind columns, keep the selection
             vector untouched — zero copying *)
          let cols =
            Array.map
              (function Plan.CCol i -> b.Batch.cols.(i) | _ -> assert false)
              exprs
          in
          { b with Batch.cols }
        else
          (* general expressions: evaluate row-major so side effects
             (subplans, errors) happen in row order *)
          Batch.of_rows ~arity:(Array.length exprs)
            (Array.of_seq
               (Seq.map
                  (fun row -> Array.map (eval ctx row) exprs)
                  (Batch.rows b))))
      (run_batches ctx input)
  | Nested_loop_join { left; right; cond; left_outer; right_arity } ->
    let nulls = Array.make right_arity Value.Null in
    Seq.concat_map
      (fun lb ->
        let out = ref [] in
        Batch.iter_live
          (fun li ->
            let lrow = Batch.row lb li in
            let matched = ref false in
            Seq.iter
              (fun rrow ->
                let joined = Array.append lrow rrow in
                if truthy ctx joined cond then begin
                  matched := true;
                  out := joined :: !out
                end)
              (Batch.to_row_seq (run_batches ctx right));
            if left_outer && not !matched then
              out := Array.append lrow nulls :: !out)
          lb;
        List.to_seq
          (Batch.chunk_rows
             ~arity:(Batch.arity lb + right_arity)
             (List.rev !out)))
      (run_batches ctx left)
  | Hash_join { left; right; left_keys; right_keys; cond; left_outer; right_arity } ->
    let nulls = Array.make right_arity Value.Null in
    fun () ->
      (* build on the right into one dense batch; the hash table maps
         key -> physical row indices into it, so matched build rows are
         emitted by column gather with no row-boxing round trip. An
         Exchange build side is partitioned across domains into
         per-domain batch + partial table, then merged with an index
         offset into the bucket order a sequential build produces). *)
      let keys_of_batch (b : Batch.t) =
        let arity = Batch.arity b in
        if
          Array.for_all
            (function Plan.CCol i -> i >= 0 && i < arity | _ -> false)
            right_keys
        then fun r ->
          Array.map
            (function
              | Plan.CCol c -> Batch.get b c r
              | _ -> assert false)
            right_keys
        else fun r ->
          let rrow = Batch.row b r in
          Array.map (eval ctx rrow) right_keys
      in
      let build_local (b : Batch.t) =
        let key_of = keys_of_batch b in
        let local = KeyTbl.create 256 in
        let count = ref 0 in
        for r = 0 to b.Batch.len - 1 do
          let k = key_of r in
          if not (Array.exists (fun v -> v = Value.Null) k) then begin
            incr count;
            KeyTbl.replace local k
              (r
               :: (match KeyTbl.find_opt local k with
                   | Some l -> l
                   | None -> []))
          end
        done;
        (local, !count)
      in
      let build_par pool inputs =
          let locals =
            Conc.Pool.parallel_map pool
              (fun p ->
                let b =
                  Batch.concat ~arity:right_arity
                    (List.of_seq (run_batches ctx p))
                in
                let local, count = build_local b in
                (b, local, count))
              inputs
          in
          let rB =
            Batch.concat ~arity:right_arity
              (List.map (fun (b, _, _) -> b) locals)
          in
          let tbl = KeyTbl.create 256 in
          let off = ref 0 in
          List.iter
            (fun ((b : Batch.t), local, count) ->
              (match st with
               | Some s -> s.build_rows <- s.build_rows + count
               | None -> ());
              let o = !off in
              KeyTbl.iter
                (fun k l ->
                  KeyTbl.replace tbl k
                    (List.map (fun r -> r + o) l
                     @ (match KeyTbl.find_opt tbl k with
                        | Some g -> g
                        | None -> [])))
                local;
              off := !off + b.Batch.len)
            locals;
          (rB, Hj_gen tbl)
      in
      let build_seq () =
          let rB =
            Batch.concat ~arity:right_arity
              (List.of_seq (run_batches ctx right))
          in
          (* single unboxed key column: table keys on raw ints, so the
             build loop never allocates — the common shape for the
             doc_id / node_id equi-joins the XML shredding produces *)
          let int_build =
            match right_keys with
            | [| Plan.CCol c |] when c >= 0 && c < Batch.arity rB -> (
              match rB.Batch.cols.(c) with
              | Batch.I a ->
                let t = Hashtbl.create 256 in
                for r = 0 to rB.Batch.len - 1 do
                  Hashtbl.replace t a.(r)
                    (r
                     :: (match Hashtbl.find_opt t a.(r) with
                         | Some l -> l
                         | None -> []))
                done;
                Some (Hj_int t, rB.Batch.len)
              | Batch.V _ -> None)
            | _ -> None
          in
          let tbl, count =
            match int_build with
            | Some tc -> tc
            | None ->
              let t, c = build_local rB in
              (Hj_gen t, c)
          in
          (match st with
           | Some s -> s.build_rows <- s.build_rows + count
           | None -> ());
          (rB, tbl)
      in
      let rB, tbl =
        match right with
        | Plan.Exchange { inputs; workers } -> (
          match exchange_pool ~workers with
          | Some pool -> build_par pool inputs
          | None -> build_seq ())
        | _ -> build_seq ()
      in
      let lookup (k : Value.t array) =
        match tbl with
        | Hj_gen t -> (
          match KeyTbl.find_opt t k with Some l -> l | None -> [])
        | Hj_int t -> (
          match k with
          | [| Value.Int i |] -> (
            match Hashtbl.find_opt t i with Some l -> l | None -> [])
          | _ -> [])
      in
      (Seq.concat_map
         (fun lb ->
           match cond with
           | Some _ ->
             (* the residual condition needs full joined rows: box per
                match *)
             let out = ref [] in
             Batch.iter_live
               (fun li ->
                 let lrow = Batch.row lb li in
                 let k = Array.map (eval ctx lrow) left_keys in
                 let matches =
                   if Array.exists (fun v -> v = Value.Null) k then []
                   else
                     List.filter_map
                       (fun ri ->
                         let joined =
                           Array.append lrow (Batch.row rB ri)
                         in
                         if truthy ctx joined cond then Some joined
                         else None)
                       (List.rev (lookup k))
                 in
                 match matches, left_outer with
                 | [], true -> out := Array.append lrow nulls :: !out
                 | ms, _ -> List.iter (fun r -> out := r :: !out) ms)
               lb;
             List.to_seq
               (Batch.chunk_rows
                  ~arity:(Batch.arity lb + right_arity)
                  (List.rev !out))
           | None ->
             (* columnar probe: record matched (left, build) physical
                index pairs, then emit one batch per input batch by
                gathering both sides' columns — the accumulating side of
                a left-deep join chain never re-boxes. An outer-join miss
                is index -1 on the build side, gathered as NULLs. *)
             let la = Batch.arity lb in
             let key_of =
               if
                 Array.for_all
                   (function Plan.CCol i -> i >= 0 && i < la | _ -> false)
                   left_keys
               then fun i ->
                 Array.map
                   (function
                     | Plan.CCol c -> Batch.get lb c i
                     | _ -> assert false)
                   left_keys
             else fun i ->
                 let lrow = Batch.row lb i in
                 Array.map (eval ctx lrow) left_keys
             in
             let cap0 = max 16 (Batch.live lb) in
             let lidx = ref (Array.make cap0 0) in
             let ridx = ref (Array.make cap0 0) in
             let m = ref 0 in
             let push i r =
               if !m = Array.length !lidx then begin
                 let nc = 2 * !m in
                 let a = Array.make nc 0 and b = Array.make nc 0 in
                 Array.blit !lidx 0 a 0 !m;
                 Array.blit !ridx 0 b 0 !m;
                 lidx := a;
                 ridx := b
               end;
               !lidx.(!m) <- i;
               !ridx.(!m) <- r;
               incr m
             in
             let bucket_of =
               match tbl, left_keys with
               | Hj_int t, [| Plan.CCol c |] when c >= 0 && c < la -> (
                 (* unboxed probe: read the key straight out of the int
                    column, no Value round trip *)
                 match lb.Batch.cols.(c) with
                 | Batch.I a ->
                   fun i ->
                     (match Hashtbl.find_opt t a.(i) with
                      | Some l -> List.rev l
                      | None -> [])
                 | Batch.V a -> (
                   fun i ->
                     match a.(i) with
                     | Value.Int v -> (
                       match Hashtbl.find_opt t v with
                       | Some l -> List.rev l
                       | None -> [])
                     | _ -> []))
               | _ ->
                 fun i ->
                   let k = key_of i in
                   if Array.exists (fun v -> v = Value.Null) k then []
                   else List.rev (lookup k)
             in
             Batch.iter_live
               (fun i -> match bucket_of i, left_outer with
                 | [], true -> push i (-1)
                 | ms, _ -> List.iter (push i) ms)
               lb;
             let total = !m in
             if total = 0 then Seq.empty
             else begin
               let lidx = Array.sub !lidx 0 total in
               let ridx = Array.sub !ridx 0 total in
               let misses = Array.exists (fun r -> r < 0) ridx in
               let rcols =
                 Array.map
                   (fun col ->
                     match col with
                     | Batch.I a ->
                       if misses then
                         Batch.V
                           (Array.map
                              (fun r ->
                                if r < 0 then Value.Null
                                else Value.Int a.(r))
                              ridx)
                       else Batch.I (Array.map (fun r -> a.(r)) ridx)
                     | Batch.V a ->
                       Batch.V
                         (Array.map
                            (fun r -> if r < 0 then Value.Null else a.(r))
                            ridx))
                   rB.Batch.cols
               in
               let cols = Array.append (Batch.gather lb.Batch.cols lidx) rcols in
               Seq.return { Batch.len = total; cols; sel = None }
             end)
         (run_batches ctx left))
        ()
  | Sort (keys, input) ->
    fun () ->
      let bs = List.of_seq (run_batches ctx input) in
      let rows = List.concat_map (fun b -> List.of_seq (Batch.rows b)) bs in
      let cmp a b =
        let rec go i =
          if i >= Array.length keys then 0
          else
            let e, dir = keys.(i) in
            let c = Value.compare_total (eval ctx a e) (eval ctx b e) in
            let c = match dir with Sql_ast.Asc -> c | Sql_ast.Desc -> -c in
            if c <> 0 then c else go (i + 1)
        in
        go 0
      in
      let arity = match bs with b :: _ -> Batch.arity b | [] -> 0 in
      (List.to_seq (Batch.chunk_rows ~arity (List.stable_sort cmp rows))) ()
  | Aggregate { group_by; aggs; input } ->
    fun () ->
      let rows =
        run_aggregate ctx group_by aggs
          (Batch.to_row_seq (run_batches ctx input))
      in
      (batches_of_rows
         ~arity:(Array.length group_by + Array.length aggs)
         rows)
        ()
  | Distinct input ->
    fun () ->
      let seen = KeyTbl.create 256 in
      (Seq.filter_map
         (fun b ->
           let kept = ref [] and n = ref 0 in
           Batch.iter_live
             (fun r ->
               let row = Batch.row b r in
               if not (KeyTbl.mem seen row) then begin
                 KeyTbl.add seen row ();
                 kept := r :: !kept;
                 incr n
               end)
             b;
           narrow_batch b !kept !n)
         (run_batches ctx input))
        ()
  | Union_all inputs ->
    Seq.concat_map (fun input -> run_batches ctx input) (List.to_seq inputs)
  | Limit { limit; offset; input } ->
    let bs = run_batches ctx input in
    let off = match offset with Some n -> n | None -> 0 in
    let rec go skip remaining bs () =
      if remaining = Some 0 then Seq.Nil
      else
        match bs () with
        | Seq.Nil -> Seq.Nil
        | Seq.Cons (b, rest) ->
          let n = Batch.live b in
          if skip >= n then go (skip - n) remaining rest ()
          else begin
            let idx =
              match b.Batch.sel with
              | Some s -> s
              | None -> Array.init b.Batch.len (fun k -> k)
            in
            let avail = n - skip in
            let take =
              match remaining with Some r -> min r avail | None -> avail
            in
            let b' =
              if skip = 0 && take = n then b
              else { b with Batch.sel = Some (Array.sub idx skip take) }
            in
            let remaining' = Option.map (fun r -> r - take) remaining in
            Seq.Cons (b', go 0 remaining' rest)
          end
    in
    go off limit bs
  | Exchange { inputs; workers } ->
    fun () ->
      (match exchange_pool ~workers with
       | None -> Seq.concat_map (run_batches ctx) (List.to_seq inputs) ()
       | Some pool ->
         (* each domain materialises its own partition's batches;
            concatenating in input order reproduces the unpartitioned
            stream exactly *)
         let parts =
           Conc.Pool.parallel_map pool
             (fun p -> List.of_seq (run_batches ctx p))
             inputs
         in
         Seq.concat_map List.to_seq (List.to_seq parts) ())
  | Structural_join
      { left; right; interval_on_left; left_doc; right_doc; lo; hi; pos;
        lo_incl; hi_incl; cond; right_arity = _ } ->
    fun () ->
      let lB, rB, la, ra, lidx, ridx =
        batch_sj_pairs ctx st ~left ~right ~interval_on_left ~left_doc
          ~right_doc ~lo ~hi ~pos ~lo_incl ~hi_incl
      in
      (match cond with
       | None ->
         (* columnar emission: gather matched rows straight from the two
            dense batches, no per-row boxing. The whole join output goes
            out as one dense batch — a parent structural join's
            consolidation step then reuses it as-is instead of copying
            the (wide) accumulated side again. *)
         let total = Array.length lidx in
         if total = 0 then Seq.empty ()
         else
           let cols = Batch.append_cols lB rB lidx ridx in
           Seq.return { Batch.len = total; cols; sel = None } ()
       | Some _ ->
         let out = ref [] in
         for k = 0 to Array.length lidx - 1 do
           let joined =
             Array.append (Batch.row lB lidx.(k)) (Batch.row rB ridx.(k))
           in
           if truthy ctx joined cond then out := joined :: !out
         done;
         (List.to_seq (Batch.chunk_rows ~arity:(la + ra) (List.rev !out))) ())

(* Run both structural-join inputs, consolidate each side into one dense
   batch and compute the matched (left index, right index) pairs in
   left-major stream order. Shared by the plain [Structural_join] case
   and the fused Project-over-join case, which gathers only the columns
   the projection keeps (late materialisation). *)
and batch_sj_pairs ctx st ~left ~right ~interval_on_left ~left_doc
    ~right_doc ~lo ~hi ~pos ~lo_incl ~hi_incl :
    Batch.t * Batch.t * int * int * int array * int array =
      (* Both sides are consolidated into one dense batch each, so the
         XML region encoding keeps its keys in unboxed int columns and
         the key extraction skips boxing entirely. *)
      let lbs = List.of_seq (run_batches ctx left) in
      let rbs = List.of_seq (run_batches ctx right) in
      let la = match lbs with b :: _ -> Batch.arity b | [] -> 0 in
      let ra = match rbs with b :: _ -> Batch.arity b | [] -> 0 in
      let lB = Batch.concat ~arity:la lbs in
      let rB = Batch.concat ~arity:ra rbs in
      (match st with
       | Some s -> s.build_rows <- s.build_rows + lB.Batch.len + rB.Batch.len
       | None -> ());
      let ivB, ivl_doc, ptB, pt_doc =
        if interval_on_left then (lB, left_doc, rB, right_doc)
        else (rB, right_doc, lB, left_doc)
      in
      let par = structural_exchange_pool left right in
      (* an unboxed key column never holds NULL, so physical index =
         stream index and no NULL filtering is needed *)
      let int_col b (e : Plan.cexpr) =
        match e with
        | CCol i when i >= 0 && i < Batch.arity b -> (
          match b.Batch.cols.(i) with Batch.I a -> Some a | Batch.V _ -> None)
        | _ -> None
      in
      let all_pairs =
        match
          ( int_col ivB ivl_doc,
            int_col ivB lo,
            int_col ivB hi,
            int_col ptB pt_doc,
            int_col ptB pos )
        with
        | Some d, Some l, Some h, Some pd, Some pv ->
          (* hand the live columns to the merge directly — it sorts via a
             permutation, never in place, so aliasing batch storage is
             safe and key extraction allocates only the two identity
             index columns *)
          let iv_idx = Array.init ivB.Batch.len (fun k -> k) in
          let pt_idx = Array.init ptB.Batch.len (fun k -> k) in
          structural_merge_int ~par ~lo_incl ~hi_incl
            ~ivl:(d, l, h, iv_idx)
            ~pt:(pd, pv, pt_idx)
        | _ ->
          (* boxed fallback: evaluate keys per row, NULL keys never
             match (inner join) *)
          let intervals =
            let acc = ref [] in
            for k = 0 to ivB.Batch.len - 1 do
              let row = Batch.row ivB k in
              let d = eval ctx row ivl_doc in
              let l = eval ctx row lo in
              let h = eval ctx row hi in
              if d <> Value.Null && l <> Value.Null && h <> Value.Null then
                acc := (d, l, h, k) :: !acc
            done;
            Array.of_list (List.rev !acc)
          in
          let points =
            let acc = ref [] in
            for k = 0 to ptB.Batch.len - 1 do
              let row = Batch.row ptB k in
              let d = eval ctx row pt_doc in
              let v = eval ctx row pos in
              if d <> Value.Null && v <> Value.Null then
                acc := (d, v, k) :: !acc
            done;
            Array.of_list (List.rev !acc)
          in
          structural_pairs ~par ~lo_incl ~hi_incl intervals points
      in
      let lidx, ridx =
        structural_lr_pairs ~interval_on_left ~n_left:lB.Batch.len
          ~n_right:rB.Batch.len all_pairs
      in
      (match st with
       | Some s -> s.probes <- s.probes + Array.length lidx
       | None -> ());
      (lB, rB, la, ra, lidx, ridx)

let run catalog ?(params = [||]) ?obs ?cancel ?view plan =
  Batch.to_row_seq (run_batches { catalog; params; obs; cancel; view } plan)

let eval_expr catalog ?(params = [||]) row e =
  eval { catalog; params; obs = None; cancel = None; view = None } row e
