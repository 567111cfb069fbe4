(* On-disk B+tree with page-at-a-time node access through the buffer
   pool. One page file per tree: page 0 is the meta page, every other
   page is a node (or a key-overflow segment).

   Node page layout:
     0  u8   kind (0 = leaf, 1 = internal)
     2  u16  ncells
     4  u32  leaf: next-leaf page (none32 at the chain end)
             internal: leftmost child page (child0)
     8  u16 x ncells  slot array, key order; each slot is the page
                      offset of a cell
     cells below the page end, anywhere between the slot array and
     the page end (removals leave holes; see below):
       u16 klen | key bytes | u32 value        (inline key)
       u16 0x8000|0 | u32 total | u32 first | u32 value
                                               (overflow key: chain of
                                                [u32 next|u32 n|bytes]
                                                whole pages)
   A leaf cell's value is a rowid; an internal cell holds separator s_i
   with the page of child c_i, keys >= s_i (child0 lives in the header).

   Duplicate keys are stored as adjacent cells. Inserts descend by
   upper bound (first separator > key) and place the new cell after the
   equal run, so within a key the cell order is insertion order —
   exactly the posting-list append of the in-memory {!Btree} — while
   lookups and removals descend by lower bound and walk the run across
   leaf boundaries. Keys compare decoded ({!Btree.compare_key}), never
   byte-wise: [Int 3] and [Float 3.] are the same key in both engines;
   equal encoded bytes only short-cut that comparison to "equal".

   Maintenance works on the bytes of the pinned page. One descent
   binary-searches each page's slot array, decoding only the keys it
   probes (an overflow key from its chain). An insert that fits writes
   its cell into the free gap above the slot array and shifts the slots
   after it; a removal deletes its slots, leaving the cell bytes as a
   hole that the next insert short of contiguous room compacts away.
   Whether a cell fits is decided by the cells' total size, never by
   where holes fall, so a tree splits exactly when a freshly packed node
   would overflow. Only a node that must split is decoded into a cell
   array ([read_node]), cut at [split_point] and written back as two
   packed pages. *)

let ps = Bufpool.page_size
let none32 = 0xFFFFFFFF
let magic = "XQBTRE01"
let hdr = 8
let max_inline_key = 2048

exception Duplicate of Value.t array

type cell = {
  key : string;             (* encoded key; "" for a spilled key *)
  value : int;
  big : (int * int) option; (* (total_len, first_page) when spilled *)
}

type node = {
  kind : int; (* 0 leaf / 1 internal *)
  cells : cell array;
  link : int; (* leaf: next leaf; internal: child0 *)
}

type t = {
  pool : Bufpool.t;
  file : Bufpool.file;
  fpath : string;
  mutable root : int;
  mutable height : int;
  mutable distinct : int;
  mutable entries : int;
}

let get_u16 b off = Bytes.get_uint16_le b off
let set_u16 b off v = Bytes.set_uint16_le b off v
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u48 b off = Int64.to_int (Bytes.get_int64_le b off)
let set_u48 b off v = Bytes.set_int64_le b off (Int64.of_int v)

let write_meta t =
  Bufpool.with_page_w t.pool t.file 0 (fun b ->
      Bytes.blit_string magic 0 b 0 8;
      set_u32 b 8 t.root;
      set_u32 b 12 t.height;
      set_u48 b 16 t.distinct;
      set_u48 b 24 t.entries)

(* ---- key overflow chains ---- *)

let write_big t s =
  let len = String.length s in
  let cap = ps - 8 in
  let nseg = (len + cap - 1) / cap in
  let pages = Array.init nseg (fun _ -> Bufpool.allocate t.pool t.file) in
  Array.iteri
    (fun i p ->
      let pos = i * cap in
      let n = min cap (len - pos) in
      Bufpool.with_page_w t.pool t.file p (fun b ->
          set_u32 b 0 (if i + 1 < nseg then pages.(i + 1) else none32);
          set_u32 b 4 n;
          Bytes.blit_string s pos b 8 n))
    pages;
  (len, pages.(0))

let read_big t (len, first) =
  let buf = Bytes.create len in
  let rec go p pos =
    if p <> none32 then begin
      let next, pos' =
        Bufpool.with_page t.pool t.file p (fun b ->
            let n = get_u32 b 4 in
            Bytes.blit b 8 buf pos n;
            (get_u32 b 0, pos + n))
      in
      go next pos'
    end
  in
  go first 0;
  Bytes.unsafe_to_string buf

(* ---- cells on the page ---- *)

let kind b = Char.code (Bytes.get b 0)
let ncells b = get_u16 b 2
let link b = get_u32 b 4
let slot b i = get_u16 b (hdr + (2 * i))
let is_big b off = get_u16 b off land 0x8000 <> 0
let cell_len b off = if is_big b off then 14 else 6 + get_u16 b off
let cell_value b off = get_u32 b (off + cell_len b off - 4)

let cell_size c = match c.big with Some _ -> 14 | None -> 6 + String.length c.key

let put_cell b off c =
  match c.big with
  | Some (total, first) ->
    set_u16 b off 0x8000;
    set_u32 b (off + 2) total;
    set_u32 b (off + 6) first;
    set_u32 b (off + 10) c.value
  | None ->
    let n = String.length c.key in
    set_u16 b off n;
    Bytes.blit_string c.key 0 b (off + 2) n;
    set_u32 b (off + 2 + n) c.value

let dec = Rowcodec.decode_string
let cmp = Btree.compare_key

let cell_key t b off =
  if is_big b off then dec (read_big t (get_u32 b (off + 2), get_u32 b (off + 6)))
  else fst (Rowcodec.decode b (off + 2))

let same_bytes b off s =
  let n = String.length s in
  get_u16 b off = n
  &&
  let rec go i = i = n || (Bytes.get b (off + 2 + i) = s.[i] && go (i + 1)) in
  go 0

(* The cell at [off] against the search key [k] (encoded [k_enc]). *)
let cmp_cell t b off k k_enc =
  if (not (is_big b off)) && same_bytes b off k_enc then 0
  else cmp (cell_key t b off) k

(* ---- node (de)serialisation: the split path and bulk load ---- *)

let read_node t page =
  Bufpool.with_page t.pool t.file page (fun b ->
      let cells =
        Array.init (ncells b) (fun i ->
            let off = slot b i in
            if is_big b off then
              { key = ""; value = get_u32 b (off + 10);
                big = Some (get_u32 b (off + 2), get_u32 b (off + 6)) }
            else
              { key = Bytes.sub_string b (off + 2) (get_u16 b off);
                value = cell_value b off; big = None })
      in
      { kind = kind b; cells; link = link b })

let write_node t page n =
  Bufpool.with_page_w t.pool t.file page (fun b ->
      Bytes.fill b 0 ps '\000';
      Bytes.set b 0 (Char.chr n.kind);
      set_u16 b 2 (Array.length n.cells);
      set_u32 b 4 n.link;
      let top = ref ps in
      Array.iteri
        (fun i c ->
          top := !top - cell_size c;
          set_u16 b (hdr + (2 * i)) !top;
          put_cell b !top c)
        n.cells)

let mk_cell t key value =
  if String.length key > max_inline_key then
    { key = ""; value; big = Some (write_big t key) }
  else { key; value; big = None }

(* ---- open / create ---- *)

let init_empty t =
  t.root <- Bufpool.allocate t.pool t.file;
  t.height <- 1;
  t.distinct <- 0;
  t.entries <- 0;
  write_node t t.root { kind = 0; cells = [||]; link = none32 };
  write_meta t

let create pool ~path =
  let file = Bufpool.open_file pool path in
  let t =
    { pool; file; fpath = path; root = 0; height = 0; distinct = 0; entries = 0 }
  in
  if Bufpool.npages file = 0 then begin
    ignore (Bufpool.allocate pool file) (* meta page *);
    init_empty t
  end
  else
    Bufpool.with_page pool file 0 (fun b ->
        if Bytes.sub_string b 0 8 <> magic then
          failwith (Printf.sprintf "btree %s: bad magic" path);
        t.root <- get_u32 b 8;
        t.height <- get_u32 b 12;
        t.distinct <- get_u48 b 16;
        t.entries <- get_u48 b 24);
  t

let cardinal t = t.distinct
let entry_count t = t.entries

(* ---- descent ---- *)

(* Binary search of the pinned page's slot array: the first slot whose
   key is >= k, or > k with [upper]. *)
let search t b k k_enc ~upper =
  let lo = ref 0 and hi = ref (ncells b) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = cmp_cell t b (slot b mid) k k_enc in
    if c < 0 || (upper && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

type position = {
  leaf : int;
  at : int;  (* slot in [leaf] *)
  after_run : bool;  (* [upper] only: the slot before [at] holds k *)
  path : (int * int) list;  (* internal (page, slot) passed, innermost first *)
}

(* Root to leaf, following the child left of the search position at
   each level: separators are the first key of their right subtree, so
   a lower-bound descent lands at or before the key's run and an
   upper-bound one just after it. *)
let descend t k k_enc ~upper =
  let rec go page path =
    let at, child, after_run =
      Bufpool.with_page t.pool t.file page (fun b ->
          let at = search t b k k_enc ~upper in
          if kind b = 0 then
            (at, none32, upper && at > 0 && cmp_cell t b (slot b (at - 1)) k k_enc = 0)
          else (at, (if at = 0 then link b else cell_value b (slot b (at - 1))), false))
    in
    if child = none32 then { leaf = page; at; after_run; path }
    else go child ((page, at) :: path)
  in
  go t.root []

(* Leaf by leaf along k's run from a lower-bound position: [f page b i
   e] sees the slots [i, e) of each leaf holding keys equal to k, and
   the walk follows the next-leaf link while the run reaches a leaf's
   end (removals can leave leaves empty). [f] may delete slots. *)
let walk_run t k k_enc (p : position) f =
  let rec leaf page i =
    let next =
      Bufpool.with_page t.pool t.file page (fun b ->
          let n = ncells b in
          let e = ref i in
          while !e < n && cmp_cell t b (slot b !e) k k_enc = 0 do incr e done;
          let next = if !e = n then link b else none32 in
          f page b i !e;
          next)
    in
    if next <> none32 then leaf next 0
  in
  leaf p.leaf p.at

let find t k =
  let k_enc = Rowcodec.encode k in
  let acc = ref [] in
  walk_run t k k_enc (descend t k k_enc ~upper:false) (fun _ b i e ->
      for j = i to e - 1 do acc := cell_value b (slot b j) :: !acc done);
  List.rev !acc

let mem t k =
  let k_enc = Rowcodec.encode k in
  let p = descend t k k_enc ~upper:false in
  (* the first cell at or after the position decides *)
  let rec first page i =
    match
      Bufpool.with_page t.pool t.file page (fun b ->
          if i < ncells b then Ok (cmp_cell t b (slot b i) k k_enc = 0)
          else Error (link b))
    with
    | Ok found -> found
    | Error next -> next <> none32 && first next 0
  in
  first p.leaf p.at

(* ---- insert ---- *)

(* Add [c] at slot [i] of the pinned page if the node still fits: the
   cell goes to the top of the free gap, compacting the cell area first
   when holes left the gap short, and the slots from [i] shift right.
   False, with the page untouched, when the node must split. *)
let put_in_place b i c =
  let n = ncells b in
  let sz = cell_size c in
  let low = ref ps in
  for j = 0 to n - 1 do low := min !low (slot b j) done;
  let room_from low = low - sz >= hdr + (2 * (n + 1)) in
  let low =
    if room_from !low then Some !low
    else begin
      let used = ref (hdr + (2 * n)) in
      for j = 0 to n - 1 do used := !used + cell_len b (slot b j) done;
      if !used + 2 + sz > ps then None
      else begin
        (* repack the cells in slot order against the page end *)
        let src = Bytes.sub b 0 ps in
        let top = ref ps in
        for j = 0 to n - 1 do
          let off = slot src j in
          let len = cell_len src off in
          top := !top - len;
          Bytes.blit src off b !top len;
          set_u16 b (hdr + (2 * j)) !top
        done;
        Some !top
      end
    end
  in
  match low with
  | None -> false
  | Some low ->
    let off = low - sz in
    put_cell b off c;
    Bytes.blit b (hdr + (2 * i)) b (hdr + (2 * (i + 1))) (2 * (n - i));
    set_u16 b (hdr + (2 * i)) off;
    set_u16 b 2 (n + 1);
    true

let split_point cells =
  (* split index by accumulated byte size, clamped so both halves keep at
     least one cell (pages fit >= 4 cells before overflowing, see layout) *)
  let total = Array.fold_left (fun acc c -> acc + 2 + cell_size c) 0 cells in
  let n = Array.length cells in
  let acc = ref 0 and m = ref 0 in
  (try
     for i = 0 to n - 1 do
       acc := !acc + 2 + cell_size cells.(i);
       if !acc * 2 >= total then begin
         m := i + 1;
         raise Exit
       end
     done
   with Exit -> ());
  max 1 (min (n - 1) !m)

let array_insert arr i x =
  let len = Array.length arr in
  let out = Array.make (len + 1) x in
  Array.blit arr 0 out 0 i;
  Array.blit arr i out (i + 1) (len - i);
  out

(* A node that cannot take [c] at slot [i]: decode it, insert, cut at
   [split_point] and write both halves packed. Returns the separator
   cell for the parent (its value is the new right page). A leaf
   separator shares the right head's key, and its overflow chain, which
   is immutable once written; an internal node moves its middle
   separator up. *)
let split t page i c =
  let n = read_node t page in
  let cells = array_insert n.cells i c in
  let len = Array.length cells in
  if n.kind = 0 then begin
    let m = split_point cells in
    let right_page = Bufpool.allocate t.pool t.file in
    write_node t page { n with cells = Array.sub cells 0 m; link = right_page };
    write_node t right_page
      { kind = 0; cells = Array.sub cells m (len - m); link = n.link };
    { (cells.(m)) with value = right_page }
  end
  else begin
    let m = max 1 (min (len - 2) (split_point cells)) in
    let right_page = Bufpool.allocate t.pool t.file in
    write_node t page { n with cells = Array.sub cells 0 m };
    write_node t right_page
      { kind = 1; cells = Array.sub cells (m + 1) (len - m - 1); link = cells.(m).value };
    { (cells.(m)) with value = right_page }
  end

(* Place [c] at slot [i] of [page], splitting up the descent path as
   far as needed; a root split grows the tree by one level. *)
let rec place t page i c path =
  if not (Bufpool.with_page_w t.pool t.file page (fun b -> put_in_place b i c))
  then begin
    let sep = split t page i c in
    match path with
    | (parent, j) :: up -> place t parent j sep up
    | [] ->
      let new_root = Bufpool.allocate t.pool t.file in
      write_node t new_root { kind = 1; cells = [| sep |]; link = t.root };
      t.root <- new_root;
      t.height <- t.height + 1
  end

let insert ?(unique = false) t k rowid =
  let k_enc = Rowcodec.encode k in
  let p = descend t k k_enc ~upper:true in
  (* at a leaf's first slot the key's run may end in an earlier leaf,
     which only a lower-bound probe reaches *)
  let existed = p.after_run || (p.at = 0 && mem t k) in
  if unique && existed then raise (Duplicate k);
  place t p.leaf p.at (mk_cell t k_enc rowid) p.path;
  if not existed then t.distinct <- t.distinct + 1;
  t.entries <- t.entries + 1;
  write_meta t

(* ---- remove ---- *)

(* Delete the given slots (ascending) from the slot array; the cells
   they pointed to become holes. *)
let drop_slots b = function
  | [] -> ()
  | first :: _ as drops ->
    let n = ncells b in
    let w = ref first and drops = ref drops in
    for j = first to n - 1 do
      match !drops with
      | d :: rest when d = j -> drops := rest
      | _ ->
        set_u16 b (hdr + (2 * !w)) (slot b j);
        incr w
    done;
    set_u16 b 2 !w

let remove t k pred =
  let k_enc = Rowcodec.encode k in
  let removed = ref 0 and remaining = ref 0 in
  walk_run t k k_enc (descend t k k_enc ~upper:false) (fun page b i e ->
      let drops = ref [] in
      for j = e - 1 downto i do
        if pred (cell_value b (slot b j)) then drops := j :: !drops
      done;
      let nd = List.length !drops in
      removed := !removed + nd;
      remaining := !remaining + (e - i - nd);
      (* pinned already: this write pin only marks the frame dirty *)
      if nd > 0 then Bufpool.with_page_w t.pool t.file page (fun b -> drop_slots b !drops));
  if !removed > 0 then begin
    t.entries <- t.entries - !removed;
    if !remaining = 0 then t.distinct <- t.distinct - 1;
    write_meta t
  end

(* ---- range scans ---- *)

let rec leftmost t page =
  match
    Bufpool.with_page t.pool t.file page (fun b ->
        if kind b = 0 then none32 else link b)
  with
  | c when c = none32 -> page
  | c -> leftmost t c

let range ?lo ?hi t =
  let above_lo k =
    match lo with
    | None -> true
    | Some (lk, incl) ->
      let c = cmp k lk in
      if incl then c >= 0 else c > 0
  in
  let below_hi k =
    match hi with
    | None -> true
    | Some (hk, incl) ->
      let c = cmp k hk in
      if incl then c <= 0 else c < 0
  in
  let start () =
    match lo with
    | None -> (leftmost t t.root, 0)
    | Some (k, _) ->
      let p = descend t k (Rowcodec.encode k) ~upper:false in
      (p.leaf, p.at)
  in
  (* one leaf at a time: decode the qualifying cells under a single pin,
     emit, then chase the next-leaf link *)
  let rec leaf_seq page i () =
    let out, next =
      Bufpool.with_page t.pool t.file page (fun b ->
          let n = ncells b in
          let out = ref [] and j = ref i and stop = ref false in
          while (not !stop) && !j < n do
            let off = slot b !j in
            let k = cell_key t b off in
            if not (below_hi k) then stop := true
            else if above_lo k then out := (k, cell_value b off) :: !out;
            incr j
          done;
          (List.rev !out, if !stop then none32 else link b))
    in
    let rec emit = function
      | [] -> if next = none32 then Seq.Nil else leaf_seq next 0 ()
      | r :: rest -> Seq.Cons (r, fun () -> emit rest)
    in
    emit out
  in
  fun () ->
    let page, i = start () in
    leaf_seq page i ()

let iter f t =
  Seq.iter (fun (k, v) -> f k v) (range t)

(* ---- bulk load ---- *)

(* Pack sorted (encoded key, value) pairs bottom-up: fill leaves to the
   byte budget, chain them left to right, then build each internal level
   from the (first key, page) list of the level below. The stream must be
   sorted by (key, insertion order); [unique] raises {!Duplicate} on two
   equal adjacent keys. The tree must be empty. *)
let bulk_load ?(unique = false) t pairs =
  if t.entries > 0 then invalid_arg "Btree_paged.bulk_load: tree not empty";
  let budget = ps in
  (* current leaf under construction *)
  let cells = ref [] and size = ref hdr and ncells = ref 0 in
  let leaves = ref [] (* (head cell, page) reversed *) in
  let prev_leaf = ref none32 in
  let prev_key = ref None in
  let distinct = ref 0 and entries = ref 0 in
  let flush_leaf () =
    if !ncells > 0 then begin
      let page = Bufpool.allocate t.pool t.file in
      let node =
        { kind = 0; cells = Array.of_list (List.rev !cells); link = none32 }
      in
      write_node t page node;
      if !prev_leaf <> none32 then
        Bufpool.with_page_w t.pool t.file !prev_leaf (fun b -> set_u32 b 4 page);
      prev_leaf := page;
      leaves := (node.cells.(0), page) :: !leaves;
      cells := [];
      size := hdr;
      ncells := 0
    end
  in
  Seq.iter
    (fun (k_enc, v) ->
      (match !prev_key with
       | Some pk ->
         let equal = String.equal pk k_enc || cmp (dec pk) (dec k_enc) = 0 in
         if equal then begin
           if unique then raise (Duplicate (dec k_enc))
         end
         else incr distinct
       | None -> incr distinct);
      prev_key := Some k_enc;
      let cell = mk_cell t k_enc v in
      let sz = 2 + cell_size cell in
      if !size + sz > budget then flush_leaf ();
      cells := cell :: !cells;
      size := !size + sz;
      incr ncells;
      incr entries)
    pairs;
  flush_leaf ();
  (match List.rev !leaves with
   | [] ->
     (* empty load: leave the fresh empty tree as is *)
     ()
   | level0 ->
     let rec build level height =
       match level with
       | [ (_, page) ] ->
         t.root <- page;
         t.height <- height
       | _ ->
         (* pack (sep, child) cells into internal nodes by byte budget *)
         let parents = ref [] in
         let cur = ref [] and cur_size = ref hdr and head = ref None in
         let child0 = ref none32 in
         let flush_internal () =
           match !head with
           | None -> ()
           | Some head_cell ->
             let page = Bufpool.allocate t.pool t.file in
             write_node t page
               { kind = 1; cells = Array.of_list (List.rev !cur); link = !child0 };
             parents := (head_cell, page) :: !parents;
             cur := [];
             cur_size := hdr;
             head := None;
             child0 := none32
         in
         List.iter
           (fun (head_cell, page) ->
             match !head with
             | None ->
               head := Some head_cell;
               child0 := page
             | Some _ ->
               let sep = { head_cell with value = page } in
               let sz = 2 + cell_size sep in
               if !cur_size + sz > budget then begin
                 flush_internal ();
                 head := Some head_cell;
                 child0 := page
               end
               else begin
                 cur := sep :: !cur;
                 cur_size := !cur_size + sz
               end)
           level;
         flush_internal ();
         build (List.rev !parents) (height + 1)
     in
     build level0 1);
  t.distinct <- !distinct;
  t.entries <- !entries;
  write_meta t

(* ---- lifecycle ---- *)

let truncate t =
  Bufpool.truncate_file t.pool t.file;
  ignore (Bufpool.allocate t.pool t.file);
  init_empty t

let sync t = write_meta t

let close t =
  write_meta t;
  Bufpool.close_file t.pool t.file

let destroy t = Bufpool.remove_file t.pool t.file

let path t = t.fpath
