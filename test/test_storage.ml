(* Units for the paged storage backend: buffer pool, heap files, the
   on-disk B+tree, the point-lookup caches above them, and crash
   recovery of a disk-backed database. The full SQL surface is already
   exercised against this backend by the suite-wide XOMATIQ_STORAGE=disk
   run; these tests pin down the layer contracts directly. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

module V = Rdb.Value

let value_testable : V.t Alcotest.testable = Alcotest.testable V.pp V.equal
let row_testable = Alcotest.array value_testable
let rows_testable = Alcotest.list row_testable

let with_temp_dir f =
  let dir = Filename.temp_file "xomatiq_storage" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(* ---- buffer pool ---- *)

let test_pool_eviction_roundtrip () =
  with_temp_dir @@ fun dir ->
  let pool = Rdb.Bufpool.create ~frames:8 () in
  let file = Rdb.Bufpool.open_file pool (Filename.concat dir "pages") in
  let npages = 32 in
  let ev0 = Rdb.Bufpool.pool_evictions () in
  for i = 0 to npages - 1 do
    let p = Rdb.Bufpool.allocate pool file in
    check int "sequential allocation" i p;
    Rdb.Bufpool.with_page_w pool file p (fun b ->
        Bytes.fill b 0 Rdb.Bufpool.page_size (Char.chr (i land 0xff)))
  done;
  (* 32 distinct pages through 8 frames must evict; reads see every
     page's own byte pattern back. *)
  check bool "evictions happened" true (Rdb.Bufpool.pool_evictions () > ev0);
  for i = 0 to npages - 1 do
    Rdb.Bufpool.with_page pool file i (fun b ->
        check int (Printf.sprintf "page %d first byte" i) (i land 0xff)
          (Char.code (Bytes.get b 0));
        check int (Printf.sprintf "page %d last byte" i) (i land 0xff)
          (Char.code (Bytes.get b (Rdb.Bufpool.page_size - 1))))
  done;
  let h0 = Rdb.Bufpool.pool_hits () in
  Rdb.Bufpool.with_page pool file (npages - 1) (fun _ -> ());
  check bool "re-read of resident page is a hit" true (Rdb.Bufpool.pool_hits () > h0);
  Rdb.Bufpool.close_file pool file

let test_pool_truncate () =
  with_temp_dir @@ fun dir ->
  let pool = Rdb.Bufpool.create ~frames:8 () in
  let file = Rdb.Bufpool.open_file pool (Filename.concat dir "pages") in
  for _ = 1 to 4 do
    let p = Rdb.Bufpool.allocate pool file in
    Rdb.Bufpool.with_page_w pool file p (fun b -> Bytes.fill b 0 8 'x')
  done;
  check int "four pages" 4 (Rdb.Bufpool.npages file);
  Rdb.Bufpool.truncate_file pool file;
  check int "truncated to zero" 0 (Rdb.Bufpool.npages file);
  let p = Rdb.Bufpool.allocate pool file in
  Rdb.Bufpool.with_page pool file p (fun b ->
      check int "fresh page reads zeroes" 0 (Char.code (Bytes.get b 0)));
  Rdb.Bufpool.close_file pool file

(* ---- heap file ---- *)

let row i = [| V.Int i; V.Text (Printf.sprintf "row-%04d" i) |]

let test_heapfile_crud () =
  with_temp_dir @@ fun dir ->
  let pool = Rdb.Bufpool.create ~frames:16 () in
  let h = Rdb.Heapfile.create pool ~base:(Filename.concat dir "t") in
  for i = 0 to 99 do
    check int "rowid assignment" i (Rdb.Heapfile.insert h (row i))
  done;
  check int "live count" 100 (Rdb.Heapfile.live h);
  check int "next rowid" 100 (Rdb.Heapfile.next_rowid h);
  (match Rdb.Heapfile.get h 42 with
   | Some r -> check row_testable "get decodes the stored image" (row 42) r
   | None -> Alcotest.fail "row 42 missing");
  check bool "delete live row" true (Rdb.Heapfile.delete h 42);
  check bool "double delete refused" false (Rdb.Heapfile.delete h 42);
  check bool "deleted row invisible" true (Rdb.Heapfile.get h 42 = None);
  check int "live after delete" 99 (Rdb.Heapfile.live h);
  let scanned = List.of_seq (Rdb.Heapfile.scan_range h ~lo:40 ~hi:45) in
  check (Alcotest.list int) "scan skips the tombstone" [ 40; 41; 43; 44 ]
    (List.map fst scanned);
  check bool "undelete" true (Rdb.Heapfile.undelete h 42);
  (match Rdb.Heapfile.get h 42 with
   | Some r -> check row_testable "undelete restores the image" (row 42) r
   | None -> Alcotest.fail "undelete lost the row");
  Rdb.Heapfile.update h 7 [| V.Int 7; V.Text "updated" |];
  (match Rdb.Heapfile.get h 7 with
   | Some r -> check value_testable "update repoints" (V.Text "updated") r.(1)
   | None -> Alcotest.fail "row 7 missing");
  check int "rowids never reused" 100 (Rdb.Heapfile.insert h (row 100));
  Rdb.Heapfile.close h

let test_heapfile_overflow () =
  with_temp_dir @@ fun dir ->
  let pool = Rdb.Bufpool.create ~frames:16 () in
  let h = Rdb.Heapfile.create pool ~base:(Filename.concat dir "big") in
  (* Three pages of payload: exercises the overflow chain on both the
     point-get and the scan path. *)
  let big = String.init 20000 (fun i -> Char.chr (65 + (i mod 26))) in
  let r0 = Rdb.Heapfile.insert h [| V.Int 0; V.Text big |] in
  let r1 = Rdb.Heapfile.insert h [| V.Int 1; V.Text "small" |] in
  (match Rdb.Heapfile.get h r0 with
   | Some r -> check value_testable "overflow roundtrip" (V.Text big) r.(1)
   | None -> Alcotest.fail "overflow row missing");
  let scanned = List.of_seq (Rdb.Heapfile.scan_range h ~lo:0 ~hi:2) in
  check rows_testable "scan decodes overflow and inline rows"
    [ [| V.Int 0; V.Text big |]; [| V.Int 1; V.Text "small" |] ]
    (List.map snd scanned);
  ignore r1;
  Rdb.Heapfile.close h

let test_heapfile_reopen () =
  with_temp_dir @@ fun dir ->
  let base = Filename.concat dir "t" in
  let pool = Rdb.Bufpool.create ~frames:16 () in
  let h = Rdb.Heapfile.create pool ~base in
  for i = 0 to 49 do ignore (Rdb.Heapfile.insert h (row i)) done;
  ignore (Rdb.Heapfile.delete h 13);
  Rdb.Heapfile.close h;
  let pool2 = Rdb.Bufpool.create ~frames:16 () in
  let h2 = Rdb.Heapfile.create pool2 ~base in
  check int "reopen next_rowid" 50 (Rdb.Heapfile.next_rowid h2);
  check int "reopen live" 49 (Rdb.Heapfile.live h2);
  check bool "tombstone survives reopen" true (Rdb.Heapfile.get h2 13 = None);
  (match Rdb.Heapfile.get h2 37 with
   | Some r -> check row_testable "rows survive reopen" (row 37) r
   | None -> Alcotest.fail "row 37 missing after reopen");
  Rdb.Heapfile.close h2

(* ---- paged B+tree ---- *)

let key i = [| V.Int i |]

let test_btree_paged_dups_across_splits () =
  with_temp_dir @@ fun dir ->
  let pool = Rdb.Bufpool.create ~frames:64 () in
  let bt = Rdb.Btree_paged.create pool ~path:(Filename.concat dir "idx") in
  (* Few keys, many postings each: the equal runs span leaf splits and
     find must still return rowids in insertion order. *)
  for rowid = 0 to 2999 do
    Rdb.Btree_paged.insert bt (key (rowid mod 3)) rowid
  done;
  check int "distinct keys" 3 (Rdb.Btree_paged.cardinal bt);
  check int "total postings" 3000 (Rdb.Btree_paged.entry_count bt);
  let expected = List.init 1000 (fun i -> (i * 3) + 1) in
  check (Alcotest.list int) "postings in insertion order" expected
    (Rdb.Btree_paged.find bt (key 1));
  check (Alcotest.list int) "absent key" [] (Rdb.Btree_paged.find bt (key 9));
  Rdb.Btree_paged.remove bt (key 1) (fun id -> id < 1500);
  check (Alcotest.list int) "predicate removal keeps the tail"
    (List.filter (fun id -> id >= 1500) expected)
    (Rdb.Btree_paged.find bt (key 1));
  Rdb.Btree_paged.close bt

let test_btree_paged_range_bounds () =
  with_temp_dir @@ fun dir ->
  let pool = Rdb.Bufpool.create ~frames:64 () in
  let bt = Rdb.Btree_paged.create pool ~path:(Filename.concat dir "idx") in
  for i = 0 to 99 do Rdb.Btree_paged.insert bt (key i) i done;
  let ids ?lo ?hi () =
    List.map snd (List.of_seq (Rdb.Btree_paged.range ?lo ?hi bt))
  in
  check (Alcotest.list int) "inclusive/exclusive" [ 10; 11; 12; 13; 14 ]
    (ids ~lo:(key 10, true) ~hi:(key 15, false) ());
  check (Alcotest.list int) "exclusive low" [ 96; 97; 98; 99 ]
    (ids ~lo:(key 95, false) ());
  check (Alcotest.list int) "inclusive high" [ 0; 1; 2 ] (ids ~hi:(key 2, true) ());
  check int "unbounded sweep" 100 (List.length (ids ()));
  Rdb.Btree_paged.close bt

let test_btree_paged_bulk_load_parity () =
  with_temp_dir @@ fun dir ->
  let pool = Rdb.Bufpool.create ~frames:64 () in
  let incremental = Rdb.Btree_paged.create pool ~path:(Filename.concat dir "inc") in
  let bulk = Rdb.Btree_paged.create pool ~path:(Filename.concat dir "blk") in
  let n = 5000 in
  (* Insertion in shuffled key order; the bulk path gets the same pairs
     pre-sorted by (key, rowid) as Index.bulk_load would hand them. *)
  let pairs = List.init n (fun rowid -> ((rowid * 7919) mod n, rowid)) in
  List.iter (fun (k, rowid) -> Rdb.Btree_paged.insert incremental (key k) rowid) pairs;
  let sorted = List.sort compare pairs in
  Rdb.Btree_paged.bulk_load bulk
    (List.to_seq (List.map (fun (k, rowid) -> (Rdb.Rowcodec.encode (key k), rowid)) sorted));
  check int "cardinal parity" (Rdb.Btree_paged.cardinal incremental)
    (Rdb.Btree_paged.cardinal bulk);
  check int "entry parity" (Rdb.Btree_paged.entry_count incremental)
    (Rdb.Btree_paged.entry_count bulk);
  for k = 0 to 20 do
    check (Alcotest.list int)
      (Printf.sprintf "find parity for key %d" k)
      (Rdb.Btree_paged.find incremental (key k))
      (Rdb.Btree_paged.find bulk (key k))
  done;
  let sweep bt = List.of_seq (Rdb.Btree_paged.range bt) in
  check int "range sweep parity" (List.length (sweep incremental))
    (List.length (sweep bulk));
  Rdb.Btree_paged.close incremental;
  Rdb.Btree_paged.close bulk

(* Random inserts, predicate removals and batched removals against a
   model of insertion-ordered postings, through a 16-frame pool so the
   in-place page edits are evicted and read back. The keys cover a Null
   run spanning many leaves, [Int 3] next to [Float 3.] (one key, two
   encodings) and texts over 2 KiB (overflow chains). *)
type bt_op =
  | Ins of V.t array * int  (* key, number of postings *)
  | Rem of V.t array * int * int  (* key; drop rowids r with r mod m = c *)
  | Tail of V.t array * int  (* key; drop its newest postings, r >= pct% of next *)
  | Batch of int * int  (* every posting with rowid mod m = c, by key *)

let big_text i = V.Text (String.make 2100 'x' ^ string_of_int i)

let bt_keys =
  [ [| V.Null |]; [| V.Int 3 |]; [| V.Float 3. |]; [| V.Int 0 |]; [| V.Int 5 |];
    [| V.Float 2.5 |]; [| big_text 0 |]; [| big_text 1 |]; [| V.Text "t1" |];
    [| V.Text "t2" |]; [| V.Bool true |] ]

let show_key k = String.concat "," (List.map V.to_literal (Array.to_list k))

let show_op = function
  | Ins (k, n) -> Printf.sprintf "Ins(%s x%d)" (show_key k) n
  | Rem (k, m, c) -> Printf.sprintf "Rem(%s, r mod %d = %d)" (show_key k) m c
  | Tail (k, pct) -> Printf.sprintf "Tail(%s, r >= %d%%)" (show_key k) pct
  | Batch (m, c) -> Printf.sprintf "Batch(r mod %d = %d)" m c

let gen_bt_op =
  let open QCheck.Gen in
  let key =
    frequency
      [ (3, return [| V.Null |]);
        (4, oneofl (List.filter (fun k -> k <> [| V.Null |]) bt_keys)) ]
  in
  frequency
    [ ( 5,
        key >>= fun k ->
        map (fun n -> Ins (k, n))
          (if k = [| V.Null |] then int_range 500 2500 else int_range 1 40) );
      (2, map3 (fun k m c -> Rem (k, m, c mod m)) key (int_range 1 4) nat);
      (1, map2 (fun k pct -> Tail (k, pct)) key (int_range 20 90));
      (2, map2 (fun m c -> Batch (m, c mod m)) (int_range 2 5) nat) ]

let bt_matches_model bt model =
  (* [model]: (key, rowid) newest first *)
  let entries = List.rev model in
  let cmp = Rdb.Btree.compare_key in
  let sorted = List.stable_sort (fun (a, _) (b, _) -> cmp a b) entries in
  let find k = List.filter_map (fun (k', r) -> if cmp k k' = 0 then Some r else None) entries in
  let in_bounds lo hi (k, _) =
    (match lo with None -> true | Some (l, incl) -> let c = cmp k l in c > 0 || (incl && c = 0))
    && match hi with None -> true | Some (h, incl) -> let c = cmp k h in c < 0 || (incl && c = 0)
  in
  let distinct =
    List.length (List.sort_uniq cmp (List.map fst entries))
  in
  let probes = [| V.Int 99 |] :: [| V.Text "zz" |] :: bt_keys in
  let bounds = [ None; Some ([| V.Null |], false) ] @ List.map (fun k -> Some (k, true)) probes in
  Rdb.Btree_paged.entry_count bt = List.length entries
  && Rdb.Btree_paged.cardinal bt = distinct
  && List.of_seq (Rdb.Btree_paged.range bt) = sorted
  && List.for_all
       (fun k ->
         Rdb.Btree_paged.find bt k = find k && Rdb.Btree_paged.mem bt k = (find k <> []))
       probes
  && List.for_all
       (fun (lo, hi) ->
         List.of_seq (Rdb.Btree_paged.range ?lo ?hi bt)
         = List.filter (in_bounds lo hi) sorted)
       (List.concat_map
          (fun lo -> List.map (fun hi -> (lo, Option.map (fun (k, _) -> (k, false)) hi)) bounds)
          bounds)

let test_btree_paged_model =
  QCheck.Test.make ~count:40 ~name:"paged B+tree agrees with a posting-list model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 14) gen_bt_op))
    (fun ops ->
      with_temp_dir @@ fun dir ->
      let path = Filename.concat dir "idx" in
      let bt = Rdb.Btree_paged.create (Rdb.Bufpool.create ~frames:16 ()) ~path in
      let next = ref 0 and model = ref [] in
      let drop gone =
        model := List.filter (fun (k, r) -> not (gone k r)) !model
      in
      List.iter
        (function
          | Ins (k, n) ->
            for _ = 1 to n do
              Rdb.Btree_paged.insert bt k !next;
              model := (k, !next) :: !model;
              incr next
            done
          | Rem (k, m, c) ->
            Rdb.Btree_paged.remove bt k (fun r -> r mod m = c);
            drop (fun k' r -> Rdb.Btree.compare_key k k' = 0 && r mod m = c)
          | Tail (k, pct) ->
            (* the run's head stays in earlier leaves, so a later insert
               of k can land at a leaf's first slot *)
            let cut = !next * pct / 100 in
            Rdb.Btree_paged.remove bt k (fun r -> r >= cut);
            drop (fun k' r -> Rdb.Btree.compare_key k k' = 0 && r >= cut)
          | Batch (m, c) ->
            (* grouped by key the way Index.remove hands them over *)
            let victims = List.filter (fun (_, r) -> r mod m = c) !model in
            let keys = List.sort_uniq Rdb.Btree.compare_key (List.map fst victims) in
            List.iter
              (fun k ->
                let ids =
                  List.filter_map
                    (fun (k', r) -> if Rdb.Btree.compare_key k k' = 0 then Some r else None)
                    victims
                in
                Rdb.Btree_paged.remove bt k (fun r -> List.mem r ids))
              keys;
            drop (fun _ r -> r mod m = c))
        ops;
      let live = bt_matches_model bt !model in
      Rdb.Btree_paged.close bt;
      let bt = Rdb.Btree_paged.create (Rdb.Bufpool.create ~frames:16 ()) ~path in
      let reopened = bt_matches_model bt !model in
      Rdb.Btree_paged.close bt;
      live && reopened)

(* Allocation per insert into a tree whose postings are 90% one Null
   run: a descent decodes only the keys it probes, so the cost does not
   follow the page size. *)
let test_btree_paged_insert_alloc () =
  with_temp_dir @@ fun dir ->
  let bt =
    Rdb.Btree_paged.create (Rdb.Bufpool.create ~frames:64 ())
      ~path:(Filename.concat dir "idx")
  in
  let key i = if i mod 10 = 0 then [| V.Float (float_of_int i) |] else [| V.Null |] in
  for i = 0 to 19_999 do Rdb.Btree_paged.insert bt (key i) i done;
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for i = 20_000 to 20_000 + n - 1 do Rdb.Btree_paged.insert bt (key i) i done;
  let per = (Gc.minor_words () -. w0) /. float_of_int n in
  Printf.printf "minor words per insert: %.0f\n" per;
  check bool (Printf.sprintf "%.0f minor words per insert < 2000" per) true (per < 2000.);
  Rdb.Btree_paged.close bt

(* Deleting a document sweeps each index key's postings once per
   statement, so its page requests do not follow how many of its nodes
   share the warehouse's long Null run in [xml_node_nval] (and the "-"
   run in [xml_node_sval]): two 21-node documents whose 20 values hold 2
   and 20 non-numeric "-", over 20k bulk-loaded "-" values. Neither
   value makes a keyword. *)
let test_delete_pages_flat_in_null_run () =
  with_temp_dir @@ fun dir ->
  let db = Rdb.Database.open_disk ~dir:(Filename.concat dir "pages") () in
  Fun.protect ~finally:(fun () -> Rdb.Database.close db) @@ fun () ->
  Datahounds.Shred.install db;
  let doc ~nulls ~values name =
    let text =
      "<d>"
      ^ String.concat "" (List.init values (fun i -> if i < nulls then "<v>-</v>" else "<v>7</v>"))
      ^ "</d>"
    in
    Datahounds.Shred.prepare ~collection:"c" ~name (Gxml.Parser.parse_document text)
  in
  (match
     Datahounds.Shred.install_prepared_bulk db
       (List.init 100 (fun i -> doc ~nulls:200 ~values:200 (Printf.sprintf "base%d" i)))
   with
   | Ok _ -> ()
   | Error m -> Alcotest.fail m);
  List.iter
    (fun (nulls, name) ->
      match Datahounds.Shred.install_prepared db (doc ~nulls ~values:20 name) with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
    [ (2, "few"); (20, "many") ];
  let pages name =
    let before = Rdb.Bufpool.pool_hits () + Rdb.Bufpool.pool_misses () in
    check bool ("deleted " ^ name) true
      (Datahounds.Shred.delete_document db ~collection:"c" ~name);
    Rdb.Bufpool.pool_hits () + Rdb.Bufpool.pool_misses () - before
  in
  let few = pages "few" in
  let many = pages "many" in
  Printf.printf "page requests: 2 Null nvals %d, 20 Null nvals %d\n" few many;
  check bool
    (Printf.sprintf "%d page requests for 20 Null nvals <= 1.5 x %d for 2" many few)
    true
    (2 * many <= 3 * few)

(* ---- point-lookup caches ---- *)

let people_schema =
  Rdb.Schema.make ~primary_key:[ "id" ] "people"
    [ ("id", Rdb.Value.Tint, false); ("name", Rdb.Value.Ttext, false) ]

let test_table_row_cache_invalidation () =
  with_temp_dir @@ fun dir ->
  let st = Rdb.Storage.create ~dir () in
  let t = Rdb.Table.create ~storage:st people_schema in
  let r name i = [| V.Int i; V.Text name |] in
  for i = 0 to 9 do
    match Rdb.Table.insert t (r "initial" i) with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m
  done;
  (* Warm the cache, then mutate through every path that must evict. *)
  for i = 0 to 9 do ignore (Rdb.Table.get t i) done;
  (match Rdb.Table.update t 3 (r "updated" 3) with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  (match Rdb.Table.get t 3 with
   | Some row -> check value_testable "update visible through cache" (V.Text "updated") row.(1)
   | None -> Alcotest.fail "row 3 missing");
  check bool "delete" true (Rdb.Table.delete t 4);
  check bool "deleted row not served from cache" true (Rdb.Table.get t 4 = None);
  check bool "undelete" true (Rdb.Table.undelete t 4 (r "initial" 4));
  (match Rdb.Table.get t 4 with
   | Some row -> check row_testable "undeleted row readable" (r "initial" 4) row
   | None -> Alcotest.fail "undelete lost row 4");
  Rdb.Table.truncate t;
  check bool "truncate clears the cache" true (Rdb.Table.get t 3 = None);
  check int "truncate empties the table" 0 (Rdb.Table.row_count t)

let test_index_posting_cache_invalidation () =
  with_temp_dir @@ fun dir ->
  let st = Rdb.Storage.create ~dir () in
  let idx =
    Rdb.Index.create ~storage:st ~name:"people_name" ~table:"people"
      ~columns:[ "name" ] ~column_positions:[ 1 ] ~unique:false Rdb.Index.Hash
  in
  let r name i = [| V.Int i; V.Text name |] in
  List.iter
    (fun i ->
      match Rdb.Index.insert idx (r "ada" i) i with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    [ 0; 1; 2 ];
  let k = [| V.Text "ada" |] in
  check (Alcotest.list int) "first lookup" [ 0; 1; 2 ] (Rdb.Index.lookup idx k);
  check (Alcotest.list int) "cached lookup" [ 0; 1; 2 ] (Rdb.Index.lookup idx k);
  (match Rdb.Index.insert idx (r "ada" 3) 3 with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  check (Alcotest.list int) "insert invalidates the posting" [ 0; 1; 2; 3 ]
    (Rdb.Index.lookup idx k);
  Rdb.Index.remove idx [ (1, r "ada" 1) ];
  check (Alcotest.list int) "remove invalidates the posting" [ 0; 2; 3 ]
    (Rdb.Index.lookup idx k);
  Rdb.Index.clear idx;
  check (Alcotest.list int) "clear resets everything" [] (Rdb.Index.lookup idx k);
  Rdb.Index.close idx

(* ---- disk database: reopen and crash recovery ---- *)

let seed_sql =
  [ "CREATE TABLE people (id INTEGER PRIMARY KEY, name TEXT NOT NULL, age INTEGER)";
    "CREATE INDEX people_age ON people (age)";
    "INSERT INTO people VALUES (1, 'ada', 36)";
    "INSERT INTO people VALUES (2, 'grace', 85)";
    "INSERT INTO people VALUES (3, 'alan', 41)" ]

let snapshot db =
  let _, rows = Rdb.Database.query_exn db "SELECT id, name, age FROM people ORDER BY id" in
  rows

let test_disk_reopen_attach () =
  with_temp_dir @@ fun dir ->
  let wal = Filename.concat dir "wal" and data = Filename.concat dir "pages" in
  let db = Rdb.Database.open_disk ~wal ~dir:data () in
  List.iter (fun sql -> ignore (Rdb.Database.exec_exn db sql)) seed_sql;
  let expected = snapshot db in
  Rdb.Database.close db;
  check bool "clean shutdown wrote the manifest" true
    (Sys.file_exists (Filename.concat data "MANIFEST"));
  let db2 = Rdb.Database.open_disk ~wal ~dir:data () in
  check rows_testable "attach reopen sees the same rows" expected (snapshot db2);
  let _, by_idx =
    Rdb.Database.query_exn db2 "SELECT name FROM people WHERE age > 40 ORDER BY age"
  in
  check rows_testable "attached secondary index answers range scans"
    [ [| V.Text "alan" |]; [| V.Text "grace" |] ]
    by_idx;
  ignore (Rdb.Database.exec_exn db2 "INSERT INTO people VALUES (4, 'edsger', 72)");
  check int "writes continue after attach" 4
    (List.length (snapshot db2));
  Rdb.Database.close db2

let test_disk_recovery_torn_pages () =
  with_temp_dir @@ fun dir ->
  let wal = Filename.concat dir "wal" and data = Filename.concat dir "pages" in
  let db = Rdb.Database.open_disk ~wal ~dir:data () in
  List.iter (fun sql -> ignore (Rdb.Database.exec_exn db sql)) seed_sql;
  let expected = snapshot db in
  Rdb.Database.close db;
  (* Crash simulation: the manifest never made it out and a heap page is
     torn. Recovery must distrust every page file and rebuild from the
     committed WAL. *)
  Sys.remove (Filename.concat data "MANIFEST");
  let heap_dir = Filename.concat data "heap" in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".heap" then begin
        let path = Filename.concat heap_dir f in
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        ignore (Unix.write_substring fd (String.make 64 '\xff') 0 64);
        Unix.close fd
      end)
    (Sys.readdir heap_dir);
  let db2 = Rdb.Database.open_disk ~wal ~dir:data () in
  check rows_testable "WAL rebuild restores the rows" expected (snapshot db2);
  Rdb.Database.close db2

let test_disk_recovery_truncated_wal () =
  with_temp_dir @@ fun dir ->
  let wal = Filename.concat dir "wal" and data = Filename.concat dir "pages" in
  let db = Rdb.Database.open_disk ~wal ~dir:data () in
  List.iter (fun sql -> ignore (Rdb.Database.exec_exn db sql)) seed_sql;
  let expected = snapshot db in
  let wal_lines_before =
    let ic = open_in wal in
    let n = ref 0 in
    (try while true do ignore (input_line ic); incr n done with End_of_file -> ());
    close_in ic;
    !n
  in
  (* A bulk load whose tail of the WAL is then torn off: spool rows via
     the spool-then-load path, close, and truncate the log back to the
     pre-load line count (manifest dropped, pages scribbled — nothing
     newer than the WAL survives). *)
  let storage = Option.get (Rdb.Database.storage db) in
  let w = Rdb.Storage.spool_create (Rdb.Storage.spool_path storage "late") in
  for i = 10 to 29 do
    Rdb.Storage.spool_add w [| V.Int i; V.Text (Printf.sprintf "late-%d" i); V.Int i |]
  done;
  let rows = Rdb.Storage.spool_finish w in
  (match Rdb.Database.bulk_load db ~table:"people"
           ~spool:(Rdb.Storage.spool_path storage "late") ~rows
   with
   | Ok n -> check int "bulk load landed" 20 n
   | Error m -> Alcotest.fail m);
  check int "rows visible before the crash" 23 (List.length (snapshot db));
  Rdb.Database.close db;
  (* Tear: drop every WAL line the load appended. *)
  let ic = open_in wal in
  let kept = Buffer.create 4096 in
  (try
     for _ = 1 to wal_lines_before do
       Buffer.add_string kept (input_line ic);
       Buffer.add_char kept '\n'
     done
   with End_of_file -> ());
  close_in ic;
  let oc = open_out wal in
  Buffer.output_buffer oc kept;
  close_out oc;
  Sys.remove (Filename.concat data "MANIFEST");
  let db2 = Rdb.Database.open_disk ~wal ~dir:data () in
  check rows_testable "recovery lands on the pre-load state" expected (snapshot db2);
  Rdb.Database.close db2

let () =
  Alcotest.run "storage"
    [ ( "bufpool",
        [ Alcotest.test_case "eviction roundtrip" `Quick test_pool_eviction_roundtrip;
          Alcotest.test_case "truncate" `Quick test_pool_truncate ] );
      ( "heapfile",
        [ Alcotest.test_case "crud + scan" `Quick test_heapfile_crud;
          Alcotest.test_case "overflow chains" `Quick test_heapfile_overflow;
          Alcotest.test_case "reopen" `Quick test_heapfile_reopen ] );
      ( "btree_paged",
        [ Alcotest.test_case "duplicates across splits" `Quick
            test_btree_paged_dups_across_splits;
          Alcotest.test_case "range bounds" `Quick test_btree_paged_range_bounds;
          Alcotest.test_case "bulk load parity" `Quick test_btree_paged_bulk_load_parity;
          QCheck_alcotest.to_alcotest test_btree_paged_model;
          Alcotest.test_case "insert allocation in a long Null run" `Quick
            test_btree_paged_insert_alloc;
          Alcotest.test_case "document delete pages flat in Null run" `Quick
            test_delete_pages_flat_in_null_run ] );
      ( "caches",
        [ Alcotest.test_case "table row cache invalidation" `Quick
            test_table_row_cache_invalidation;
          Alcotest.test_case "index posting cache invalidation" `Quick
            test_index_posting_cache_invalidation ] );
      ( "recovery",
        [ Alcotest.test_case "reopen attaches pages" `Quick test_disk_reopen_attach;
          Alcotest.test_case "torn pages, missing manifest" `Quick
            test_disk_recovery_torn_pages;
          Alcotest.test_case "truncated WAL drops the bulk load" `Quick
            test_disk_recovery_truncated_wal ] ) ]
