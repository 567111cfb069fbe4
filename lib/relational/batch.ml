(* Columnar row batches for the vectorized executor. See batch.mli. *)

type col =
  | I of int array
  | V of Value.t array

type t = {
  len : int;
  cols : col array;
  sel : int array option;
}

let max_rows = 1024

let arity b = Array.length b.cols

let live b = match b.sel with None -> b.len | Some s -> Array.length s

let get b c r =
  match b.cols.(c) with
  | I a -> Value.Int a.(r)
  | V a -> a.(r)

let row b r = Array.init (Array.length b.cols) (fun c -> get b c r)

let iter_live f b =
  match b.sel with
  | None ->
      for r = 0 to b.len - 1 do
        f r
      done
  | Some s -> Array.iter f s

let fold_live f acc b =
  match b.sel with
  | None ->
      let acc = ref acc in
      for r = 0 to b.len - 1 do
        acc := f !acc r
      done;
      !acc
  | Some s -> Array.fold_left f acc s

let rows b =
  match b.sel with
  | None -> Seq.init b.len (fun r -> row b r)
  | Some s -> Seq.init (Array.length s) (fun i -> row b s.(i))

(* Transpose rows into columns. A column becomes unboxed only when every
   entry is Value.Int. *)
let of_rows ~arity (rows : Value.t array array) =
  let n = Array.length rows in
  let cols =
    Array.init arity (fun c ->
        (* one fused check-and-fill pass: unbox optimistically, abort to
           the boxed representation at the first non-Int value (for a
           text column that is row 0, so the probe costs O(1)) *)
        let ia = Array.make n 0 in
        let r = ref 0 in
        let all_int = ref true in
        while !all_int && !r < n do
          (match rows.(!r).(c) with
           | Value.Int i -> ia.(!r) <- i
           | _ -> all_int := false);
          if !all_int then incr r
        done;
        if !all_int then I ia else V (Array.init n (fun r -> rows.(r).(c))))
  in
  { len = n; cols; sel = None }

let of_values (vals : Value.t array) =
  let n = Array.length vals in
  let all_int = ref true in
  for k = 0 to n - 1 do
    match vals.(k) with Value.Int _ -> () | _ -> all_int := false
  done;
  if !all_int then
    I
      (Array.init n (fun k ->
           match vals.(k) with Value.Int i -> i | _ -> assert false))
  else V vals

let gather cols idx =
  Array.map
    (function
      | I a -> I (Array.map (fun r -> a.(r)) idx)
      | V a -> V (Array.map (fun r -> a.(r)) idx))
    cols

let compact b =
  match b.sel with
  | None -> b
  | Some s -> { len = Array.length s; cols = gather b.cols s; sel = None }

let concat ~arity bs =
  match bs with
  | [] -> { len = 0; cols = Array.init arity (fun _ -> I [||]); sel = None }
  | [ b ] when arity = Array.length b.cols -> compact b
  | bs ->
      let bs = List.map compact bs in
      let n = List.fold_left (fun acc b -> acc + b.len) 0 bs in
      let cols =
        Array.init arity (fun c ->
            (* unboxed only when every input keeps this column unboxed *)
            let all_int =
              List.for_all
                (fun b -> match b.cols.(c) with I _ -> true | V _ -> false)
                bs
            in
            if all_int then begin
              let out = Array.make n 0 in
              let off = ref 0 in
              List.iter
                (fun b ->
                  (match b.cols.(c) with
                  | I a -> Array.blit a 0 out !off b.len
                  | V _ -> assert false);
                  off := !off + b.len)
                bs;
              I out
            end
            else begin
              let out = Array.make n Value.Null in
              let off = ref 0 in
              List.iter
                (fun b ->
                  (match b.cols.(c) with
                  | I a ->
                      for r = 0 to b.len - 1 do
                        out.(!off + r) <- Value.Int a.(r)
                      done
                  | V a -> Array.blit a 0 out !off b.len);
                  off := !off + b.len)
                bs;
              V out
            end)
      in
      { len = n; cols; sel = None }

let append_cols l r li ri =
  Array.append (gather l.cols li) (gather r.cols ri)

let to_row_seq bseq = Seq.concat_map rows bseq

let chunk_rows ~arity rows =
  let rec go acc buf n = function
    | [] ->
        let acc =
          if n = 0 then acc
          else of_rows ~arity (Array.of_list (List.rev buf)) :: acc
        in
        List.rev acc
    | r :: rest ->
        if n + 1 >= max_rows then
          go
            (of_rows ~arity (Array.of_list (List.rev (r :: buf))) :: acc)
            [] 0 rest
        else go acc (r :: buf) (n + 1) rest
  in
  go [] [] 0 rows
