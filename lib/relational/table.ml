(* Heap tables behind one of two row stores: the in-memory vector
   (tombstones as [None] slots) or a paged heap file on disk. Rowid
   discipline is identical in both — sequential assignment, never
   reused — so the two backends are row-for-row interchangeable. *)

type store =
  | Mem of Value.t array option Vector.t
  | Disk of Heapfile.t

(* MVCC: a version is the pre-image a row had before the writer [v_txid]
   first modified it. While the writer is in flight [v_end] is
   [pending]; commit seals it with the commit sequence number, meaning
   "this image was current for every snapshot taken before [v_end]".
   Chains are oldest-first; table-level exclusive locks mean at most one
   pending version per row. Appends are versioned wholesale by the
   table length at the writer's first append ([len_version]): rows at
   or past a snapshot's visible length do not exist for it. *)
let pending = max_int

type version = {
  mutable v_end : int;
  v_txid : int;
  v_image : Value.t array option;  (* None: the slot was a tombstone *)
}

type len_version = { mutable l_end : int; l_txid : int; l_len : int }

type snap = { at : int; self : int }

type t = {
  schema : Schema.t;
  store : store;
  mutable live : int; (* Mem only; the heap file tracks its own count *)
  mutable indexes : Index.t list;
  (* Disk only: decoded rows memoized by rowid, so repeated point
     fetches (index-driven plans re-reading a hot working set) skip the
     page pin + Rowcodec decode. Capacity is tied to the buffer pool's
     frame budget, keeping total memory proportional to the pool; any
     mutation of a rowid evicts it. Cleared wholesale when full —
     amortized O(1), no LRU bookkeeping on the hit path. *)
  row_cache : (int, Value.t array) Hashtbl.t;
  row_cache_cap : int;
  (* MVCC state. [vcount] (versions + len versions, all kinds) doubles
     as the snapshot readers' fast-path gate: 0 means no writer is in
     flight and no unreclaimed history exists, so the raw store IS the
     snapshot. Guarded by [vmutex]; readers only take it on the slow
     path or once per scanned chunk. *)
  vmutex : Mutex.t;
  mutable vcount : int;
  versions : (int, version list) Hashtbl.t;  (* rowid -> oldest-first *)
  mutable len_versions : len_version list;   (* oldest-first *)
  (* Disk only: the store latch. MVCC snapshot readers run concurrently
     with a writer holding the table's exclusive lock, and the paged
     backend mutates heap pages, index pages and [row_cache] in place —
     a reader decoding the same bytes mid-write would see a torn row
     (the in-memory store is immune: rows are immutable arrays swapped
     by pointer). Every physical access from a path that can race takes
     this latch; lock order is [vmutex] then [smutex], never the
     reverse. *)
  smutex : Mutex.t;
}

let pkey_index ?storage (schema : Schema.t) =
  match schema.primary_key with
  | [] -> None
  | keys ->
    let positions = List.map (Schema.column_index schema) keys in
    Some
      (Index.create ?storage
         ~name:(schema.table_name ^ "_pkey")
         ~table:schema.table_name ~columns:keys ~column_positions:positions
         ~unique:true Index.Btree)

let create ?storage schema =
  let indexes = match pkey_index ?storage schema with Some i -> [ i ] | None -> [] in
  let store, cache_cap =
    match storage with
    | None -> (Mem (Vector.create ()), 0)
    | Some st ->
      ( Disk
          (Heapfile.create (Storage.pool st)
             ~base:(Storage.heap_base st schema.Schema.table_name)),
        8 * Bufpool.frames (Storage.pool st) )
  in
  { schema; store; live = 0; indexes;
    row_cache = Hashtbl.create 64; row_cache_cap = cache_cap;
    vmutex = Mutex.create (); vcount = 0;
    versions = Hashtbl.create 16; len_versions = [];
    smutex = Mutex.create () }

let schema t = t.schema

let row_count t =
  match t.store with Mem _ -> t.live | Disk h -> Heapfile.live h

let next_rowid t =
  match t.store with Mem v -> Vector.length v | Disk h -> Heapfile.next_rowid h

(* The store latch; a no-op for the in-memory backend (see [smutex]). *)
let with_s t f =
  match t.store with
  | Mem _ -> f ()
  | Disk _ ->
    Mutex.lock t.smutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.smutex) f

(* Point fetch without the latch: for internal use by callers that
   already hold [smutex]. *)
let get_unlatched t rowid =
  match t.store with
  | Mem v -> if rowid < 0 || rowid >= Vector.length v then None else Vector.get v rowid
  | Disk h ->
    (match Hashtbl.find_opt t.row_cache rowid with
     | Some row -> Some row
     | None ->
       (match Heapfile.get h rowid with
        | Some row as r ->
          if Hashtbl.length t.row_cache >= t.row_cache_cap then
            Hashtbl.reset t.row_cache;
          Hashtbl.add t.row_cache rowid row;
          r
        | None -> None))

let get t rowid = with_s t (fun () -> get_unlatched t rowid)

let insert t row =
  match Schema.check_row t.schema row with
  | Error _ as e -> e
  | Ok () ->
    with_s t @@ fun () ->
    let rowid = next_rowid t in
    (* Try all indexes; roll back the ones already updated on failure. *)
    let rec add_all done_ = function
      | [] -> Ok ()
      | idx :: rest ->
        (match Index.insert idx row rowid with
         | Ok () -> add_all (idx :: done_) rest
         | Error m ->
           List.iter (fun i -> Index.remove i row rowid) done_;
           Error m)
    in
    (match add_all [] t.indexes with
     | Error _ as e -> e
     | Ok () ->
       (match t.store with
        | Mem v ->
          ignore (Vector.push v (Some row));
          t.live <- t.live + 1
        | Disk h -> ignore (Heapfile.insert h row));
       Ok rowid)

(* Append without touching the indexes: the bulk-load path builds or
   patches them separately (bottom-up for empty paged trees). Schema
   validation still applies. *)
let append_bulk t row =
  match Schema.check_row t.schema row with
  | Error _ as e -> e
  | Ok () ->
    with_s t @@ fun () ->
    let rowid = next_rowid t in
    (match t.store with
     | Mem v ->
       ignore (Vector.push v (Some row));
       t.live <- t.live + 1
     | Disk h -> ignore (Heapfile.insert h row));
    Ok rowid

let delete t rowid =
  with_s t @@ fun () ->
  match get_unlatched t rowid with
  | None -> false
  | Some row ->
    List.iter (fun idx -> Index.remove idx row rowid) t.indexes;
    (match t.store with
     | Mem v ->
       Vector.set v rowid None;
       t.live <- t.live - 1
     | Disk h ->
       Hashtbl.remove t.row_cache rowid;
       ignore (Heapfile.delete h rowid));
    true

let undelete t rowid row =
  with_s t @@ fun () ->
  let restored =
    match t.store with
    | Mem v ->
      rowid >= 0 && rowid < Vector.length v
      && (match Vector.get v rowid with
          | Some _ -> false
          | None ->
            Vector.set v rowid (Some row);
            t.live <- t.live + 1;
            true)
    | Disk h -> Heapfile.undelete h rowid
  in
  if restored then
    List.iter
      (fun idx ->
        match Index.insert idx row rowid with
        | Ok () -> ()
        | Error _ -> assert false (* the pre-delete state was consistent *))
      t.indexes;
  restored

let update t rowid new_row =
  with_s t @@ fun () ->
  match get_unlatched t rowid with
  | None -> Error (Printf.sprintf "row %d does not exist" rowid)
  | Some old_row ->
    (match Schema.check_row t.schema new_row with
     | Error _ as e -> e
     | Ok () ->
       (* Remove old entries, insert new; restore on unique failure. *)
       List.iter (fun idx -> Index.remove idx old_row rowid) t.indexes;
       let rec add_all done_ = function
         | [] -> Ok ()
         | idx :: rest ->
           (match Index.insert idx new_row rowid with
            | Ok () -> add_all (idx :: done_) rest
            | Error m ->
              List.iter (fun i -> Index.remove i new_row rowid) done_;
              List.iter
                (fun i ->
                  match Index.insert i old_row rowid with
                  | Ok () -> ()
                  | Error _ -> assert false (* old state was consistent *))
                t.indexes;
              Error m)
       in
       (match add_all [] t.indexes with
        | Error _ as e -> e
        | Ok () ->
          (match t.store with
           | Mem v -> Vector.set v rowid (Some new_row)
           | Disk h ->
             Hashtbl.remove t.row_cache rowid;
             Heapfile.update h rowid new_row);
          Ok ()))

let scan_range t ~lo ~hi =
  match t.store with
  | Mem v ->
    let hi = min hi (Vector.length v) in
    let rec go i () =
      if i >= hi then Seq.Nil
      else
        match Vector.get v i with
        | Some row -> Seq.Cons ((i, row), go (i + 1))
        | None -> go (i + 1) ()
    in
    go (max 0 lo)
  | Disk h -> Heapfile.scan_range h ~lo ~hi

let scan t = fun () -> scan_range t ~lo:0 ~hi:(next_rowid t) ()

let add_index t idx =
  let exception Violation of string in
  match
    Seq.iter
      (fun (rowid, row) ->
        match Index.insert idx row rowid with
        | Ok () -> ()
        | Error m -> raise (Violation m))
      (scan t)
  with
  | () ->
    t.indexes <- t.indexes @ [ idx ];
    Ok ()
  | exception Violation m -> Error m

(* Attach an already-populated index (clean-shutdown re-open of a paged
   index) without re-scanning the table. *)
let attach_index t idx = t.indexes <- t.indexes @ [ idx ]

let drop_index t name =
  let before = List.length t.indexes in
  t.indexes <- List.filter (fun i -> Index.name i <> name) t.indexes;
  List.length t.indexes < before

let indexes t = t.indexes

let find_index t name = List.find_opt (fun i -> Index.name i = name) t.indexes

let truncate t =
  Mutex.lock t.vmutex;
  Hashtbl.reset t.versions;
  t.len_versions <- [];
  t.vcount <- 0;
  Mutex.unlock t.vmutex;
  with_s t (fun () ->
      Hashtbl.reset t.row_cache;
      (match t.store with
       | Mem v ->
         Vector.clear v;
         t.live <- 0
       | Disk h -> Heapfile.truncate h);
      List.iter Index.clear t.indexes)

let close t =
  (match t.store with Mem _ -> () | Disk h -> Heapfile.close h);
  List.iter Index.close t.indexes

let destroy t =
  (match t.store with Mem _ -> () | Disk h -> Heapfile.destroy h);
  List.iter Index.destroy t.indexes

(* ---------------- MVCC: writer side ---------------- *)

let with_v t f =
  Mutex.lock t.vmutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.vmutex) f

(* Stash the pre-image before [txid]'s first modification of [rowid].
   Must be called before the raw store is mutated — that ordering is
   what lets readers trust a raw value whose chain stayed empty. With
   [since] (the writer's pinned snapshot), a sealed version newer than
   the snapshot means the row was committed over since the writer read
   it: first-updater-wins, the caller must abort. *)
let stash_row t ~txid ?since rowid =
  with_v t @@ fun () ->
  let chain = Option.value ~default:[] (Hashtbl.find_opt t.versions rowid) in
  if List.exists (fun v -> v.v_end = pending && v.v_txid = txid) chain then true
  else if
    match since with
    | Some s -> List.exists (fun v -> v.v_end <> pending && v.v_end > s) chain
    | None -> false
  then false
  else begin
    let img = with_s t (fun () -> get_unlatched t rowid) in
    Hashtbl.replace t.versions rowid
      (chain @ [ { v_end = pending; v_txid = txid; v_image = img } ]);
    t.vcount <- t.vcount + 1;
    true
  end

(* Record the table length before [txid]'s first append: rows the
   transaction adds are invisible to snapshots taken before its
   commit. Appends never conflict. *)
let stash_len t ~txid =
  with_v t @@ fun () ->
  if
    not
      (List.exists
         (fun lv -> lv.l_end = pending && lv.l_txid = txid)
         t.len_versions)
  then begin
    let len =
      match t.store with
      | Mem v -> Vector.length v
      | Disk h -> Heapfile.next_rowid h
    in
    t.len_versions <-
      t.len_versions @ [ { l_end = pending; l_txid = txid; l_len = len } ];
    t.vcount <- t.vcount + 1
  end

(* Commit: the writer's pending versions become history sealed at the
   commit sequence number. The caller orders this before publishing the
   new CSN, so a snapshot can never observe a pending version from a
   transaction that committed before the snapshot was taken. *)
let seal_versions t ~txid ~csn =
  with_v t @@ fun () ->
  Hashtbl.iter
    (fun _ chain ->
      List.iter
        (fun v -> if v.v_end = pending && v.v_txid = txid then v.v_end <- csn)
        chain)
    t.versions;
  List.iter
    (fun lv -> if lv.l_end = pending && lv.l_txid = txid then lv.l_end <- csn)
    t.len_versions

(* Drop [txid]'s pending versions without sealing: rollback (the raw
   store has been restored first), or a commit with no live snapshot to
   serve (the raw store already is the only state anyone will read). *)
let discard_versions t ~txid =
  with_v t @@ fun () ->
  let dead = ref 0 in
  let keep v =
    if v.v_end = pending && v.v_txid = txid then (incr dead; false) else true
  in
  let updates =
    Hashtbl.fold
      (fun rowid chain acc ->
        let chain' = List.filter keep chain in
        if List.length chain' <> List.length chain then (rowid, chain') :: acc
        else acc)
      t.versions []
  in
  List.iter
    (fun (rowid, chain') ->
      if chain' = [] then Hashtbl.remove t.versions rowid
      else Hashtbl.replace t.versions rowid chain')
    updates;
  t.len_versions <-
    List.filter
      (fun lv ->
        if lv.l_end = pending && lv.l_txid = txid then (incr dead; false)
        else true)
      t.len_versions;
  t.vcount <- t.vcount - !dead

(* Reclaim history no active snapshot can reach: a version sealed at or
   below the oldest active snapshot would never be returned (resolution
   picks the first version with [v_end > at]). [min_active = None] means
   no snapshot is active at all. Returns the remaining version count so
   the caller can drop fully-clean tables from its sweep list. *)
let gc_versions t ~min_active =
  with_v t @@ fun () ->
  let reclaimable v =
    v.v_end <> pending
    && (match min_active with None -> true | Some m -> v.v_end <= m)
  in
  let dead = ref 0 in
  let keep v = if reclaimable v then (incr dead; false) else true in
  let updates =
    Hashtbl.fold
      (fun rowid chain acc ->
        let chain' = List.filter keep chain in
        if List.length chain' <> List.length chain then (rowid, chain') :: acc
        else acc)
      t.versions []
  in
  List.iter
    (fun (rowid, chain') ->
      if chain' = [] then Hashtbl.remove t.versions rowid
      else Hashtbl.replace t.versions rowid chain')
    updates;
  t.len_versions <-
    List.filter
      (fun lv ->
        if
          lv.l_end <> pending
          && (match min_active with None -> true | Some m -> lv.l_end <= m)
        then (incr dead; false)
        else true)
      t.len_versions;
  t.vcount <- t.vcount - !dead;
  t.vcount

(* ---------------- MVCC: reader side ---------------- *)

(* The image of [rowid] at snapshot [snap]: the oldest version that
   outlived the snapshot and is not the reader's own pending write —
   or [`Raw], meaning the raw store already holds the snapshot image
   (no newer committed state, or the reader's own uncommitted write,
   which a transaction does see). Call under [vmutex]. *)
let resolve_locked t snap rowid =
  match Hashtbl.find_opt t.versions rowid with
  | None -> `Raw
  | Some chain ->
    (match
       List.find_opt
         (fun v -> v.v_end > snap.at && v.v_txid <> snap.self)
         chain
     with
     | Some v -> `Image v.v_image
     | None -> `Raw)

let visible_len_locked t snap =
  match
    List.find_opt
      (fun lv -> lv.l_end > snap.at && lv.l_txid <> snap.self)
      t.len_versions
  with
  | Some lv -> lv.l_len
  | None ->
    (match t.store with
     | Mem v -> Vector.length v
     | Disk h -> Heapfile.next_rowid h)

let visible_len t snap = with_v t (fun () -> visible_len_locked t snap)

(* Resolve a rowid range against a snapshot. Decisions are taken under
   the lock, raw reads outside it (disk reads do I/O); a second locked
   pass re-resolves the raw ones because a writer may have mutated a row
   between the decision and the raw read — stash-before-mutate
   guarantees the pre-image is in the chain by then. *)
let resolve_range t snap ~lo ~hi =
  let n = max 0 (hi - lo) in
  let dec =
    with_v t (fun () ->
        Array.init n (fun i -> resolve_locked t snap (lo + i)))
  in
  let imgs =
    Array.map (function `Image img -> img | `Raw -> None) dec
  in
  with_s t (fun () ->
      Array.iteri
        (fun i d ->
          match d with `Raw -> imgs.(i) <- get_unlatched t (lo + i) | _ -> ())
        dec);
  with_v t (fun () ->
      Array.iteri
        (fun i d ->
          match d with
          | `Raw ->
            (match resolve_locked t snap (lo + i) with
             | `Image img -> imgs.(i) <- img
             | `Raw -> ())
          | _ -> ())
        dec);
  let out = ref [] in
  for i = n - 1 downto 0 do
    match imgs.(i) with
    | Some row -> out := (lo + i, row) :: !out
    | None -> ()
  done;
  !out

let get_at t snap rowid =
  let slow () =
    if rowid < 0 || rowid >= visible_len t snap then None
    else
      match resolve_range t snap ~lo:rowid ~hi:(rowid + 1) with
      | [ (_, row) ] -> Some row
      | _ -> None
  in
  if with_v t (fun () -> t.vcount) = 0 then begin
    let row = get t rowid in
    (* same re-check as the chunked scan: a writer may have stashed and
       mutated between the gate and the raw read *)
    if with_v t (fun () -> t.vcount) = 0 then row else slow ()
  end
  else slow ()

let chunk_rows = 512

(* Chunked snapshot scan. Per chunk: if the version count is zero, the
   raw store is the snapshot — materialise the chunk raw, then re-check;
   a non-zero re-check means a writer stashed (and may have mutated)
   mid-chunk, so the chunk is redone through resolution. The bound [hi]
   must already be capped at the snapshot's visible length. *)
let scan_resolved t snap ~lo ~hi =
  let rec go lo () =
    if lo >= hi then Seq.Nil
    else begin
      let mid = min hi (lo + chunk_rows) in
      let fast =
        if with_v t (fun () -> t.vcount) = 0 then begin
          let rows = with_s t (fun () -> List.of_seq (scan_range t ~lo ~hi:mid)) in
          if with_v t (fun () -> t.vcount) = 0 then Some rows else None
        end
        else None
      in
      let rows =
        match fast with
        | Some rows -> rows
        | None -> resolve_range t snap ~lo ~hi:mid
      in
      Seq.append (List.to_seq rows) (go mid) ()
    end
  in
  go lo

let scan_at t snap =
  fun () -> scan_resolved t snap ~lo:0 ~hi:(visible_len t snap) ()

(* Snapshot index probes. Fast path: no versions before or after the
   raw probe means index and heap were untouched for the whole probe.
   Slow path: the current index may disagree with the snapshot (an
   in-flight or later-committed writer moved keys), so the candidate
   set is the raw probe UNION every row with version history; each
   candidate's snapshot image is re-validated against the probe
   predicate. Emission order is (key, rowid) for ranges and rowid for
   lookups — deterministic, and identical to the raw path whenever no
   writer raced the probe. *)
let key_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if not (Value.equal x b.(i)) then ok := false) a;
      !ok)

let candidates_at t snap raw_ids =
  let vl = visible_len t snap in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun id -> if id < vl then Hashtbl.replace tbl id ())
    raw_ids;
  with_v t (fun () ->
      Hashtbl.iter
        (fun rowid _ -> if rowid < vl then Hashtbl.replace tbl rowid ())
        t.versions);
  let ids = Hashtbl.fold (fun id () acc -> id :: acc) tbl [] in
  List.sort compare ids

let resolve_ids t snap ids =
  List.filter_map
    (fun id ->
      match resolve_range t snap ~lo:id ~hi:(id + 1) with
      | [ (_, row) ] -> Some (id, row)
      | _ -> None)
    ids

let lookup_at t snap idx key =
  let fast () =
    with_s t @@ fun () ->
    let ids = Index.lookup idx key in
    List.filter_map (fun id -> get_unlatched t id) ids
  in
  let slow () =
    let raw_ids = with_s t (fun () -> Index.lookup idx key) in
    List.filter_map
      (fun (_, row) ->
        if key_equal (Index.key_of_row idx row) key then Some row else None)
      (resolve_ids t snap (candidates_at t snap raw_ids))
  in
  if with_v t (fun () -> t.vcount) = 0 then begin
    let rows = fast () in
    if with_v t (fun () -> t.vcount) = 0 then rows else slow ()
  end
  else slow ()

let range_at t snap idx ?lo ?hi () =
  let fast () =
    with_s t @@ fun () ->
    List.filter_map
      (fun id -> get_unlatched t id)
      (List.of_seq (Index.range ?lo ?hi idx))
  in
  let slow () =
    let in_bounds k =
      (not (Array.exists (fun v -> v = Value.Null) k))
      && (match lo with
          | None -> true
          | Some (lk, incl) ->
            let c = Btree.compare_key lk k in
            c < 0 || (c = 0 && incl))
      && (match hi with
          | None -> true
          | Some (hk, incl) ->
            let c = Btree.compare_key k hk in
            c < 0 || (c = 0 && incl))
    in
    let raw_ids = with_s t (fun () -> List.of_seq (Index.range ?lo ?hi idx)) in
    let resolved = resolve_ids t snap (candidates_at t snap raw_ids) in
    let keyed =
      List.filter_map
        (fun (id, row) ->
          let k = Index.key_of_row idx row in
          if in_bounds k then Some (k, id, row) else None)
        resolved
    in
    List.map
      (fun (_, _, row) -> row)
      (List.sort
         (fun (k1, id1, _) (k2, id2, _) ->
           let c = Btree.compare_key k1 k2 in
           if c <> 0 then c else compare id1 id2)
         keyed)
  in
  if with_v t (fun () -> t.vcount) = 0 then begin
    let rows = fast () in
    if with_v t (fun () -> t.vcount) = 0 then rows else slow ()
  end
  else slow ()
