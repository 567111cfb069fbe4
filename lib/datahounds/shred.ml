let schema_ddl =
  [ "CREATE TABLE xml_doc (doc_id INTEGER PRIMARY KEY, collection TEXT NOT NULL, \
     name TEXT NOT NULL, root_tag TEXT NOT NULL)";
    "CREATE TABLE xml_path (path_id INTEGER PRIMARY KEY, path TEXT NOT NULL)";
    "CREATE TABLE xml_node (doc_id INTEGER NOT NULL, node_id INTEGER NOT NULL, \
     parent_id INTEGER, ord INTEGER NOT NULL, kind TEXT NOT NULL, name TEXT, \
     path_id INTEGER NOT NULL, sval TEXT, nval REAL, is_seq INTEGER NOT NULL, \
     last_desc INTEGER NOT NULL, PRIMARY KEY (doc_id, node_id))";
    "CREATE TABLE xml_keyword (doc_id INTEGER NOT NULL, node_id INTEGER NOT NULL, \
     word TEXT NOT NULL)" ]

let index_ddl =
  [ "CREATE HASH INDEX xml_doc_collection ON xml_doc (collection)";
    "CREATE HASH INDEX xml_node_path ON xml_node (path_id)";
    "CREATE HASH INDEX xml_node_parent ON xml_node (doc_id, parent_id)";
    "CREATE INDEX xml_node_sval ON xml_node (sval)";
    "CREATE INDEX xml_node_nval ON xml_node (nval)";
    "CREATE HASH INDEX xml_keyword_word ON xml_keyword (word)";
    "CREATE HASH INDEX xml_path_path ON xml_path (path)";
    (* composite probes used by correlated EXISTS translations *)
    "CREATE HASH INDEX xml_node_doc_path ON xml_node (doc_id, path_id)";
    "CREATE HASH INDEX xml_keyword_doc_word ON xml_keyword (doc_id, word)";
    (* per-document access: reconstruction and document deletion *)
    "CREATE HASH INDEX xml_node_doc ON xml_node (doc_id)";
    "CREATE HASH INDEX xml_keyword_doc ON xml_keyword (doc_id)" ]

let tables = [ "xml_doc"; "xml_path"; "xml_node"; "xml_keyword" ]

let install db =
  let have_tables =
    match Rdb.Database.query db "SELECT COUNT(*) FROM xml_doc" with
    | Ok _ -> true
    | Error _ -> false
  in
  if not have_tables then begin
    List.iter (fun sql -> ignore (Rdb.Database.exec_exn db sql)) schema_ddl;
    List.iter (fun sql -> ignore (Rdb.Database.exec_exn db sql)) index_ddl
  end

(* ------------------------------------------------------------------ *)
(* Keyword tokenisation                                                *)
(* ------------------------------------------------------------------ *)

let tokenize s =
  let n = String.length s in
  let words = ref [] and seen = Hashtbl.create 8 in
  let buf = Buffer.create 16 in
  let flush_word () =
    if Buffer.length buf >= 2 then begin
      let w = Buffer.contents buf in
      if not (Hashtbl.mem seen w) then begin
        Hashtbl.add seen w ();
        words := w :: !words
      end
    end;
    Buffer.clear buf
  in
  for i = 0 to n - 1 do
    let c = s.[i] in
    if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then Buffer.add_char buf c
    else if c >= 'A' && c <= 'Z' then Buffer.add_char buf (Char.lowercase_ascii c)
    else flush_word ()
  done;
  flush_word ();
  List.rev !words

(* ------------------------------------------------------------------ *)
(* Shredding                                                           *)
(* ------------------------------------------------------------------ *)

type stats = {
  nodes : int;
  keywords : int;
  new_paths : int;
}

let scalar_int db sql =
  match Rdb.Database.query db sql with
  | Ok (_, [ [| Rdb.Value.Int i |] ]) -> Some i
  | Ok (_, [ [| Rdb.Value.Null |] ]) -> None
  | Ok _ -> None
  | Error m -> failwith m

let load_path_table db =
  let tbl = Hashtbl.create 64 in
  (match Rdb.Database.query db "SELECT path_id, path FROM xml_path" with
   | Ok (_, rows) ->
     List.iter
       (fun row ->
         match row.(0), row.(1) with
         | Rdb.Value.Int id, Rdb.Value.Text p -> Hashtbl.replace tbl p id
         | _ -> ())
       rows
   | Error m -> failwith m);
  tbl

let numeric_of s =
  let s = String.trim s in
  if s = "" then None
  else
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> Some f
    | _ -> None

let document_id db ~collection ~name =
  match
    Rdb.Database.query db
      (Printf.sprintf "SELECT doc_id FROM xml_doc WHERE collection = %s AND name = %s"
         (Rdb.Value.to_literal (Text collection))
         (Rdb.Value.to_literal (Text name)))
  with
  | Ok (_, [ [| Rdb.Value.Int id |] ]) -> Some id
  | Ok _ -> None
  | Error m -> failwith m

(* Shredding is split into a pure [prepare] phase (tree walk, node and
   keyword row construction — no database access) and an
   [install_prepared] phase (id allocation and the transactional
   insert). [shred] is their composition; a harvest prepares its whole
   batch first, then installs it one document at a time or, on disk,
   through [install_prepared_bulk], and every route produces
   byte-identical tables.

   The doc_id and path_id columns depend on database state, so prepared
   rows carry Null placeholders (slots 0 and 6 of xml_node, slot 0 of
   xml_keyword) plus the path string; [install_prepared] patches them
   while walking the rows in emission order. The original code allocated
   path ids at emission time and inserted rows in emission order, so
   resolving first-seen paths in that same order reproduces the exact
   sequential id assignment. *)

type prepared = {
  prep_collection : string;
  prep_name : string;
  prep_root_tag : string;
  prep_nodes : (Rdb.Value.t array * string) list;
      (* (xml_node row, path string) in emission order *)
  prep_keywords : Rdb.Value.t array list;  (* xml_keyword rows, emission order *)
}

let prepare ?(sequence_elements = []) ~collection ~name (doc : Gxml.Tree.document) =
  let node_rows = ref [] and kw_rows = ref [] in
  let next_node = ref 0 in
  let fresh_node () =
    let id = !next_node in
    incr next_node;
    id
  in
  let is_seq_elem tag = List.mem tag sequence_elements in
  let emit_keywords node_id sval =
    List.iter
      (fun w -> kw_rows := [| Rdb.Value.Null; Int node_id; Text w |] :: !kw_rows)
      (tokenize sval)
  in
  let emit_node ~node_id ~parent ~ord ~kind ~name:nm ~path ~sval ~is_seq ~last_desc =
    let nval =
      match sval with
      | Some s when not is_seq ->
        (match numeric_of s with Some f -> Rdb.Value.Float f | None -> Rdb.Value.Null)
      | _ -> Rdb.Value.Null
    in
    node_rows :=
      ( [| Rdb.Value.Null; Int node_id;
           (match parent with Some p -> Int p | None -> Null);
           Int ord; Text kind;
           (match nm with Some n -> Text n | None -> Null);
           Null;
           (match sval with Some s -> Text s | None -> Null);
           nval;
           Int (if is_seq then 1 else 0);
           Int last_desc |],
        path )
      :: !node_rows;
    (match sval with
     | Some s when not is_seq -> emit_keywords node_id s
     | _ -> ())
  in
  (* Walk the tree in preorder. Returns the preorder rank of the last
     node in the subtree. *)
  let rec walk_element ~parent ~ord ~parent_path ~parent_seq (e : Gxml.Tree.element) =
    let node_id = fresh_node () in
    let path = parent_path ^ "/" ^ e.tag in
    let is_seq = parent_seq || is_seq_elem e.tag in
    (* attributes come right after their element in preorder *)
    let attr_ids =
      List.mapi
        (fun i (a : Gxml.Tree.attribute) ->
          let aid = fresh_node () in
          (aid, i, a))
        e.attrs
    in
    let inline_text =
      match e.children with
      | [ Gxml.Tree.Text t ] -> Some t
      | _ -> None
    in
    let child_last = ref (match attr_ids with [] -> node_id | _ -> fst3_last attr_ids) in
    (* children *)
    (match inline_text with
     | Some _ -> ()
     | None ->
       List.iteri
         (fun i child ->
           match child with
           | Gxml.Tree.Element c ->
             child_last := walk_element ~parent:(Some node_id) ~ord:i
                 ~parent_path:path ~parent_seq:is_seq c
           | Gxml.Tree.Text t ->
             let tid = fresh_node () in
             emit_node ~node_id:tid ~parent:(Some node_id) ~ord:i ~kind:"text"
               ~name:None ~path:(path ^ "/#text") ~sval:(Some t) ~is_seq
               ~last_desc:tid;
             child_last := tid)
         e.children);
    let last_desc = !child_last in
    emit_node ~node_id ~parent ~ord ~kind:"elem" ~name:(Some e.tag) ~path
      ~sval:inline_text ~is_seq ~last_desc;
    List.iter
      (fun (aid, i, (a : Gxml.Tree.attribute)) ->
        emit_node ~node_id:aid ~parent:(Some node_id) ~ord:i ~kind:"attr"
          ~name:(Some a.attr_name) ~path:(path ^ "/@" ^ a.attr_name)
          ~sval:(Some a.attr_value) ~is_seq ~last_desc:aid)
      attr_ids;
    last_desc
  and fst3_last l =
    match List.rev l with
    | (id, _, _) :: _ -> id
    | [] -> assert false
  in
  ignore (walk_element ~parent:None ~ord:0 ~parent_path:"" ~parent_seq:false doc.root);
  { prep_collection = collection; prep_name = name; prep_root_tag = doc.root.tag;
    prep_nodes = List.rev !node_rows; prep_keywords = List.rev !kw_rows }

let install_prepared db (p : prepared) =
  let collection = p.prep_collection and name = p.prep_name in
  if document_id db ~collection ~name <> None then
    Error (Printf.sprintf "document %S already exists in collection %S" name collection)
  else begin
    let doc_id =
      1 + Option.value ~default:0 (scalar_int db "SELECT MAX(doc_id) FROM xml_doc")
    in
    let paths = load_path_table db in
    let new_paths = ref [] in
    let next_path_id =
      ref (1 + Option.value ~default:0 (scalar_int db "SELECT MAX(path_id) FROM xml_path"))
    in
    let path_id path =
      match Hashtbl.find_opt paths path with
      | Some id -> id
      | None ->
        let id = !next_path_id in
        incr next_path_id;
        Hashtbl.add paths path id;
        new_paths := (id, path) :: !new_paths;
        id
    in
    let docv = Rdb.Value.Int doc_id in
    (* patch ids in emission order: first-seen paths get ids in the same
       order the emitting walk would have allocated them *)
    List.iter
      (fun (row, path) ->
        row.(0) <- docv;
        row.(6) <- Rdb.Value.Int (path_id path))
      p.prep_nodes;
    List.iter (fun row -> row.(0) <- docv) p.prep_keywords;
    (* write everything in one transaction *)
    let started_txn = not (Rdb.Database.in_transaction db) in
    if started_txn then ignore (Rdb.Database.exec_exn db "BEGIN");
    let rollback m =
      if started_txn then ignore (Rdb.Database.exec db "ROLLBACK");
      Error m
    in
    let doc_row =
      [| Rdb.Value.Int doc_id; Text collection; Text name; Text p.prep_root_tag |]
    in
    let path_rows =
      List.rev_map (fun (id, pth) -> [| Rdb.Value.Int id; Text pth |]) !new_paths
    in
    match Rdb.Database.insert_rows db ~table:"xml_doc" [ doc_row ] with
    | Error m -> rollback m
    | Ok _ ->
      (match Rdb.Database.insert_rows db ~table:"xml_path" path_rows with
       | Error m -> rollback m
       | Ok _ ->
         (match Rdb.Database.insert_rows db ~table:"xml_node" (List.map fst p.prep_nodes) with
          | Error m -> rollback m
          | Ok nodes ->
            (match Rdb.Database.insert_rows db ~table:"xml_keyword" p.prep_keywords with
             | Error m -> rollback m
             | Ok keywords ->
               if started_txn then ignore (Rdb.Database.exec_exn db "COMMIT");
               Ok (doc_id, { nodes; keywords; new_paths = List.length path_rows }))))
  end

let shred ?(sequence_elements = []) db ~collection ~name (doc : Gxml.Tree.document) =
  install_prepared db (prepare ~sequence_elements ~collection ~name doc)

(* ------------------------------------------------------------------ *)
(* Spool-then-load installation (disk backend)                         *)
(* ------------------------------------------------------------------ *)

(* The ERDB load recipe: instead of INSERTing row by row, the whole
   batch of prepared documents is written to four spool files (one per
   table) and appended with {!Rdb.Database.bulk_load} — full pages, one
   WAL record per table, indexes built bottom-up when the target is a
   fresh paged B+tree.

   Id allocation simulates the sequential per-document schedule exactly
   (doc_id = 1 + current MAX after the replaced document is removed;
   path ids first-seen in emission order across documents in order), and
   appends of different documents never interleave within a table, so
   the resulting tables are byte-identical to installing the documents
   one at a time. The one precondition is that the batch holds no two
   documents with the same (collection, name): the sequential schedule
   would make the second replace the first mid-batch, which a grouped
   load cannot reproduce — callers fall back to per-document
   installation in that (pathological) case. *)

let spool_serial = ref 0

let fresh_spool st tag =
  let rec pick () =
    incr spool_serial;
    let p =
      Rdb.Storage.spool_path st
        (Printf.sprintf "harvest-%d-%s.spool" !spool_serial tag)
    in
    if Sys.file_exists p then pick () else p
  in
  pick ()

let install_prepared_bulk db (preps : prepared list) =
  match Rdb.Database.storage db with
  | None -> Error "bulk install requires the disk storage backend"
  | Some st ->
    if preps = [] then Ok []
    else begin
      (* current (collection, name) -> doc_id view, kept in sync as the
         batch replaces and adds documents *)
      let view = Hashtbl.create 64 in
      (match Rdb.Database.query db "SELECT doc_id, collection, name FROM xml_doc" with
       | Ok (_, rows) ->
         List.iter
           (fun row ->
             match row with
             | [| Rdb.Value.Int id; Text c; Text n |] -> Hashtbl.replace view (c, n) id
             | _ -> ())
           rows
       | Error m -> failwith m);
      let max_of tbl = Hashtbl.fold (fun _ id m -> max id m) tbl 0 in
      let cur_max = ref (max_of view) in
      let paths = load_path_table db in
      let next_path_id = ref (1 + max_of paths) in
      let new_path_rows = ref [] in
      let path_id path =
        match Hashtbl.find_opt paths path with
        | Some id -> id
        | None ->
          let id = !next_path_id in
          incr next_path_id;
          Hashtbl.add paths path id;
          new_path_rows := [| Rdb.Value.Int id; Text path |] :: !new_path_rows;
          id
      in
      let deletes = ref [] in  (* replaced doc_ids, reverse document order *)
      let in_batch = Hashtbl.create 16 in
      let dup = ref None in
      let doc_w = Rdb.Storage.spool_create (fresh_spool st "doc") in
      let path_w = Rdb.Storage.spool_create (fresh_spool st "path") in
      let node_w = Rdb.Storage.spool_create (fresh_spool st "node") in
      let kw_w = Rdb.Storage.spool_create (fresh_spool st "keyword") in
      let per_doc =
        List.map
          (fun p ->
            let key = (p.prep_collection, p.prep_name) in
            if Hashtbl.mem in_batch key then dup := Some key;
            Hashtbl.replace in_batch key ();
            (match Hashtbl.find_opt view key with
             | Some old ->
               deletes := old :: !deletes;
               Hashtbl.remove view key;
               if old = !cur_max then cur_max := max_of view
             | None -> ());
            let doc_id = 1 + !cur_max in
            cur_max := doc_id;
            Hashtbl.replace view key doc_id;
            let docv = Rdb.Value.Int doc_id in
            let paths_before = !next_path_id in
            List.iter
              (fun (row, path) ->
                row.(0) <- docv;
                row.(6) <- Rdb.Value.Int (path_id path);
                Rdb.Storage.spool_add node_w row)
              p.prep_nodes;
            List.iter
              (fun row ->
                row.(0) <- docv;
                Rdb.Storage.spool_add kw_w row)
              p.prep_keywords;
            Rdb.Storage.spool_add doc_w
              [| docv; Text p.prep_collection; Text p.prep_name; Text p.prep_root_tag |];
            ( doc_id,
              { nodes = List.length p.prep_nodes;
                keywords = List.length p.prep_keywords;
                new_paths = !next_path_id - paths_before } ))
          preps
      in
      List.iter (fun r -> Rdb.Storage.spool_add path_w r) (List.rev !new_path_rows);
      let finish w = (Rdb.Storage.spool_writer_path w, Rdb.Storage.spool_finish w) in
      let spools = List.map finish [ doc_w; path_w; node_w; kw_w ] in
      match !dup with
      | Some (c, n) ->
        List.iter (fun (p, _) -> Rdb.Storage.spool_remove p) spools;
        Error
          (Printf.sprintf
             "bulk install: duplicate document %S in collection %S within one batch" n c)
      | None ->
        let started_txn = not (Rdb.Database.in_transaction db) in
        if started_txn then ignore (Rdb.Database.exec_exn db "BEGIN");
        let rollback m =
          if started_txn then ignore (Rdb.Database.exec db "ROLLBACK");
          Error m
        in
        let delete_replaced () =
          try
            List.iter
              (fun old ->
                List.iter
                  (fun table ->
                    ignore
                      (Rdb.Database.exec_exn db
                         (Printf.sprintf "DELETE FROM %s WHERE doc_id = %d" table old)))
                  [ "xml_keyword"; "xml_node"; "xml_doc" ])
              (List.rev !deletes);
            Ok ()
          with Failure m -> Error m
        in
        let rec load = function
          | [] ->
            if started_txn then ignore (Rdb.Database.exec_exn db "COMMIT");
            Ok per_doc
          | (table, (spool, rows)) :: rest ->
            if rows = 0 then begin
              (* nothing to load: no WAL record will reference the spool *)
              Rdb.Storage.spool_remove spool;
              load rest
            end
            else
              (match Rdb.Database.bulk_load db ~table ~spool ~rows with
               | Error m -> rollback m
               | Ok _ -> load rest)
        in
        (match delete_replaced () with
         | Error m -> rollback m
         | Ok () -> load (List.combine tables spools))
    end

let delete_document db ~collection ~name =
  match document_id db ~collection ~name with
  | None -> false
  | Some doc_id ->
    let started_txn = not (Rdb.Database.in_transaction db) in
    if started_txn then ignore (Rdb.Database.exec_exn db "BEGIN");
    List.iter
      (fun table ->
        ignore
          (Rdb.Database.exec_exn db
             (Printf.sprintf "DELETE FROM %s WHERE doc_id = %d" table doc_id)))
      [ "xml_keyword"; "xml_node"; "xml_doc" ];
    if started_txn then ignore (Rdb.Database.exec_exn db "COMMIT");
    true

let document_names db ~collection =
  match
    Rdb.Database.query db
      (Printf.sprintf "SELECT name FROM xml_doc WHERE collection = %s ORDER BY name"
         (Rdb.Value.to_literal (Text collection)))
  with
  | Ok (_, rows) ->
    List.filter_map
      (fun row -> match row.(0) with Rdb.Value.Text s -> Some s | _ -> None)
      rows
  | Error m -> failwith m

let collections db =
  match Rdb.Database.query db "SELECT DISTINCT collection FROM xml_doc ORDER BY collection" with
  | Ok (_, rows) ->
    List.filter_map
      (fun row -> match row.(0) with Rdb.Value.Text s -> Some s | _ -> None)
      rows
  | Error m -> failwith m

(* ------------------------------------------------------------------ *)
(* Path pattern matching                                               *)
(* ------------------------------------------------------------------ *)

(* Match a structural Gxml.Path.t against a stored path string such as
   "/hlx_enzyme/db_entry/enzyme_id" or ".../@name". *)
let path_matches (pattern : Gxml.Path.t) (stored : string) =
  let segments =
    match String.split_on_char '/' stored with
    | "" :: rest -> rest
    | rest -> rest
  in
  let test_ok (step : Gxml.Path.step) seg =
    match step.test with
    | Gxml.Path.Name n -> String.equal seg n
    | Gxml.Path.Any_element -> String.length seg > 0 && seg.[0] <> '@' && seg.[0] <> '#'
    | Gxml.Path.Attribute a -> String.equal seg ("@" ^ a)
    | Gxml.Path.Text_test -> String.equal seg "#text"
  in
  (* A Child step consumes exactly the next segment; a Descendant step
     skips zero or more segments before matching one. The whole stored
     path must be consumed (the pattern addresses the node itself). *)
  let rec match_steps (steps : Gxml.Path.step list) segs =
    match steps with
    | [] -> segs = []
    | step :: rest ->
      (match step.axis with
       | Gxml.Path.Child ->
         (match segs with
          | seg :: tl when test_ok step seg -> match_steps rest tl
          | _ -> false)
       | Gxml.Path.Descendant ->
         let rec try_from segs =
           match segs with
           | [] -> false
           | seg :: tl -> (test_ok step seg && match_steps rest tl) || try_from tl
         in
         try_from segs)
  in
  match_steps pattern segments

let path_ids_matching db (pattern : Gxml.Path.t) =
  match Rdb.Database.query db "SELECT path_id, path FROM xml_path" with
  | Error m -> failwith m
  | Ok (_, rows) ->
    List.filter_map
      (fun row ->
        match row.(0), row.(1) with
        | Rdb.Value.Int id, Rdb.Value.Text p ->
          if path_matches pattern p then Some id else None
        | _ -> None)
      rows
    |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Reconstruction (Relation2XML for whole documents)                   *)
(* ------------------------------------------------------------------ *)

let reconstruct db ~doc_id =
  match
    Rdb.Database.query db
      (Printf.sprintf
         "SELECT node_id, parent_id, ord, kind, name, sval FROM xml_node \
          WHERE doc_id = %d ORDER BY node_id"
         doc_id)
  with
  | Error m -> Error m
  | Ok (_, []) -> Error (Printf.sprintf "no such document %d" doc_id)
  | Ok (_, rows) ->
    let open Rdb.Value in
    (* parent -> (ord, node row) children, separated by kind *)
    let nodes = Hashtbl.create 256 in
    let attrs_of = Hashtbl.create 64 and kids_of = Hashtbl.create 64 in
    let root = ref None in
    List.iter
      (fun row ->
        match row with
        | [| Int node_id; parent; Int ord; Text kind; name; sval |] ->
          Hashtbl.replace nodes node_id (kind, name, sval);
          (match parent with
           | Int p ->
             let tbl = if kind = "attr" then attrs_of else kids_of in
             Hashtbl.replace tbl p
               ((ord, node_id)
                :: (match Hashtbl.find_opt tbl p with Some l -> l | None -> []))
           | Null -> root := Some node_id
           | _ -> ())
        | _ -> ())
      rows;
    let sorted tbl p =
      match Hashtbl.find_opt tbl p with
      | None -> []
      | Some l -> List.sort compare l |> List.map snd
    in
    let rec build node_id : Gxml.Tree.node =
      match Hashtbl.find_opt nodes node_id with
      | None -> failwith "reconstruct: dangling node"
      | Some (kind, name, sval) ->
        (match kind with
         | "text" ->
           Gxml.Tree.Text (match sval with Text s -> s | _ -> "")
         | "elem" ->
           let tag = match name with Text t -> t | _ -> failwith "unnamed element" in
           let attrs =
             List.map
               (fun aid ->
                 match Hashtbl.find_opt nodes aid with
                 | Some ("attr", Text an, Text av) ->
                   { Gxml.Tree.attr_name = an; attr_value = av }
                 | _ -> failwith "reconstruct: bad attribute row")
               (sorted attrs_of node_id)
           in
           let children =
             match sval with
             | Text inline -> [ Gxml.Tree.Text inline ]
             | _ -> List.map build (sorted kids_of node_id)
           in
           Gxml.Tree.Element { tag; attrs; children }
         | k -> failwith ("reconstruct: unexpected kind " ^ k))
    in
    (match !root with
     | None -> Error "no root node"
     | Some r ->
       (match build r with
        | Gxml.Tree.Element e -> Ok (Gxml.Tree.document e)
        | Gxml.Tree.Text _ -> Error "root is a text node"
        | exception Failure m -> Error m))
