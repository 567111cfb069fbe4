type kind = Hash | Btree

module Key = struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    && (let ok = ref true in
        Array.iteri (fun i x -> if not (Value.equal x b.(i)) then ok := false) a;
        !ok)

  let hash k =
    Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 k
end

module KeyTbl = Hashtbl.Make (Key)

(* In disk mode both declared kinds are backed by a paged B+tree (the
   declared kind is kept so planner behaviour — e.g. hash indexes
   rejecting range scans — is identical across backends). *)
type impl =
  | Hash_impl of int list KeyTbl.t  (* reversed insertion order *)
  | Btree_impl of int Btree.t
  | Paged_impl of Btree_paged.t

type t = {
  idx_name : string;
  idx_table : string;
  idx_columns : string list;
  idx_positions : int list;
  idx_unique : bool;
  idx_kind : kind;
  mutable impl : impl;
  mutable distinct : int;   (* mem impls only; paged trees self-count *)
  mutable entries : int;
  (* Paged only: posting lists memoized by key, so repeated equality
     probes (disk-mode hash-index lookups are paged-tree descents) hit a
     flat hashtable instead. Bounded; cleared wholesale when full; the
     probed key is evicted on any mutation touching it. *)
  post_cache : int list KeyTbl.t;
}

let post_cache_cap = 4096

let create ?storage ~name ~table ~columns ~column_positions ~unique kind =
  let impl =
    match storage with
    | Some st ->
      Paged_impl (Btree_paged.create (Storage.pool st) ~path:(Storage.index_path st name))
    | None ->
      (match kind with
       | Hash -> Hash_impl (KeyTbl.create 256)
       | Btree -> Btree_impl (Btree.create ()))
  in
  { idx_name = name; idx_table = table; idx_columns = columns;
    idx_positions = column_positions; idx_unique = unique; idx_kind = kind;
    impl; distinct = 0; entries = 0; post_cache = KeyTbl.create 64 }

let name t = t.idx_name
let table t = t.idx_table
let columns t = t.idx_columns
let column_positions t = t.idx_positions
let is_unique t = t.idx_unique
let kind t = t.idx_kind
let is_paged t = match t.impl with Paged_impl _ -> true | _ -> false

let key_of_row t row =
  Array.of_list (List.map (fun i -> row.(i)) t.idx_positions)

let lookup t key =
  match t.impl with
  | Hash_impl tbl -> (match KeyTbl.find_opt tbl key with Some l -> List.rev l | None -> [])
  | Btree_impl bt -> Btree.find bt key
  | Paged_impl bt ->
    (match KeyTbl.find_opt t.post_cache key with
     | Some l -> l
     | None ->
       let l = Btree_paged.find bt key in
       if KeyTbl.length t.post_cache >= post_cache_cap then
         KeyTbl.reset t.post_cache;
       KeyTbl.add t.post_cache key l;
       l)

let unique_violation t key =
  Printf.sprintf "unique index %S violated by key (%s)" t.idx_name
    (String.concat ", " (List.map Value.to_literal (Array.to_list key)))

let insert t row rowid =
  let key = key_of_row t row in
  match t.impl with
  | Hash_impl tbl ->
    (match KeyTbl.find_opt tbl key with
     | Some _ when t.idx_unique -> Error (unique_violation t key)
     | Some l ->
       KeyTbl.replace tbl key (rowid :: l);
       t.entries <- t.entries + 1;
       Ok ()
     | None ->
       KeyTbl.add tbl key [ rowid ];
       t.distinct <- t.distinct + 1;
       t.entries <- t.entries + 1;
       Ok ())
  | Btree_impl bt ->
    (* key existence, without materialising the posting list (posting
       lists can be long; bulk loads must stay linear) *)
    let key_exists = Btree.mem bt key in
    if t.idx_unique && key_exists then Error (unique_violation t key)
    else begin
      if not key_exists then t.distinct <- t.distinct + 1;
      Btree.insert bt key rowid;
      t.entries <- t.entries + 1;
      Ok ()
    end
  | Paged_impl bt ->
    (* the tree learns whether the key exists on its own descent *)
    KeyTbl.remove t.post_cache key;
    (match Btree_paged.insert ~unique:t.idx_unique bt key rowid with
     | () -> Ok ()
     | exception Btree_paged.Duplicate _ -> Error (unique_violation t key))

let remove_key t key gone =
  match t.impl with
  | Hash_impl tbl ->
    (match KeyTbl.find_opt tbl key with
     | None -> ()
     | Some l ->
       let kept = List.filter (fun id -> not (gone id)) l in
       t.entries <- t.entries - (List.length l - List.length kept);
       if kept = [] then begin
         KeyTbl.remove tbl key;
         t.distinct <- t.distinct - 1
       end
       else KeyTbl.replace tbl key kept)
  | Btree_impl bt ->
    let before = Btree.entry_count bt and dbefore = Btree.cardinal bt in
    Btree.remove bt key gone;
    t.entries <- t.entries - (before - Btree.entry_count bt);
    t.distinct <- t.distinct - (dbefore - Btree.cardinal bt)
  | Paged_impl bt ->
    KeyTbl.remove t.post_cache key;
    Btree_paged.remove bt key gone

let remove t victims =
  (* group by key, first-seen order: each key's postings go in one
     removal, a single sweep of its run in a paged tree *)
  let groups = KeyTbl.create 16 and order = ref [] in
  List.iter
    (fun (rowid, row) ->
      let key = key_of_row t row in
      match KeyTbl.find_opt groups key with
      | Some ids -> KeyTbl.replace groups key (rowid :: ids)
      | None ->
        KeyTbl.add groups key [ rowid ];
        order := key :: !order)
    victims;
  List.iter
    (fun key ->
      let gone =
        match KeyTbl.find groups key with
        | [ id ] -> fun r -> r = id
        | ids ->
          let set = Hashtbl.create (List.length ids) in
          List.iter (fun id -> Hashtbl.replace set id ()) ids;
          Hashtbl.mem set
      in
      remove_key t key gone)
    (List.rev !order)

let range ?lo ?hi t =
  (* SQL comparison semantics: a NULL key component never satisfies a
     range predicate, but the tree orders Null below everything, so an
     unbounded low end would sweep the NULL run up. Start one-sided
     scans just above the all-Null prefix and drop any remaining
     NULL-bearing keys (composite keys can interleave). *)
  let lo =
    match lo with
    | Some _ -> lo
    | None -> Some (Array.make (List.length t.idx_positions) Value.Null, false)
  in
  let non_null (k, _) = not (Array.exists (fun v -> v = Value.Null) k) in
  match t.idx_kind, t.impl with
  | Hash, _ ->
    invalid_arg (Printf.sprintf "index %S is a hash index: no range scans" t.idx_name)
  | Btree, Btree_impl bt -> Seq.map snd (Seq.filter non_null (Btree.range ?lo ?hi bt))
  | Btree, Paged_impl bt ->
    Seq.map snd (Seq.filter non_null (Btree_paged.range ?lo ?hi bt))
  | Btree, Hash_impl _ -> assert false

let cardinality t =
  match t.impl with Paged_impl bt -> Btree_paged.cardinal bt | _ -> t.distinct

let entry_count t =
  match t.impl with Paged_impl bt -> Btree_paged.entry_count bt | _ -> t.entries

let clear t =
  match t.impl with
  | Hash_impl tbl ->
    KeyTbl.reset tbl;
    t.distinct <- 0;
    t.entries <- 0
  | Btree_impl _ ->
    t.impl <- Btree_impl (Btree.create ());
    t.distinct <- 0;
    t.entries <- 0
  | Paged_impl bt ->
    KeyTbl.reset t.post_cache;
    Btree_paged.truncate bt

let bulk_load t pairs =
  match t.impl with
  | Paged_impl bt ->
    (try
       KeyTbl.reset t.post_cache;
       Btree_paged.bulk_load ~unique:t.idx_unique bt pairs;
       Ok ()
     with Btree_paged.Duplicate key -> Error (unique_violation t key))
  | _ -> invalid_arg "Index.bulk_load: in-memory index"

let close t =
  match t.impl with Paged_impl bt -> Btree_paged.close bt | _ -> ()

let destroy t =
  match t.impl with Paged_impl bt -> Btree_paged.destroy bt | _ -> ()
