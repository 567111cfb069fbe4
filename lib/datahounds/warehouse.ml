type t = {
  database : Rdb.Database.t;
  (* cache of parsed DTDs keyed by collection *)
  dtd_cache : (string, Gxml.Dtd.t) Hashtbl.t;
}

type source = {
  source_name : string;
  source_collection : string;
  source_dtd : string;
  source_sequence_elements : string list;
  transform : string -> (string * Gxml.Tree.document) list;
}

let registry_ddl =
  "CREATE TABLE xml_dtd (collection TEXT PRIMARY KEY, dtd TEXT NOT NULL, \
   sequence_elements TEXT NOT NULL)"

let create ?wal ?data_dir () =
  let database =
    match data_dir, wal with
    | Some dir, wal -> Rdb.Database.open_disk ?wal ~dir ()
    | None, Some path -> Rdb.Database.open_with_wal path
    | None, None -> Rdb.Database.open_in_memory ()
  in
  Shred.install database;
  (match Rdb.Database.query database "SELECT COUNT(*) FROM xml_dtd" with
   | Ok _ -> ()
   | Error _ -> ignore (Rdb.Database.exec_exn database registry_ddl));
  { database; dtd_cache = Hashtbl.create 8 }

let db t = t.database
let close t = Rdb.Database.close t.database

let lit s = Rdb.Value.to_literal (Rdb.Value.Text s)

let register_source t (s : source) =
  (* validate the DTD text eagerly *)
  let parsed = Gxml.Dtd.parse s.source_dtd in
  ignore
    (Rdb.Database.exec_exn t.database
       (Printf.sprintf "DELETE FROM xml_dtd WHERE collection = %s"
          (lit s.source_collection)));
  ignore
    (Rdb.Database.exec_exn t.database
       (Printf.sprintf "INSERT INTO xml_dtd VALUES (%s, %s, %s)"
          (lit s.source_collection) (lit s.source_dtd)
          (lit (String.concat "," s.source_sequence_elements))));
  Hashtbl.replace t.dtd_cache s.source_collection parsed

let dtd_of t ~collection =
  match Hashtbl.find_opt t.dtd_cache collection with
  | Some dtd -> Some dtd
  | None ->
    (match
       Rdb.Database.query t.database
         (Printf.sprintf "SELECT dtd FROM xml_dtd WHERE collection = %s" (lit collection))
     with
     | Ok (_, [ [| Rdb.Value.Text src |] ]) ->
       let dtd = Gxml.Dtd.parse src in
       Hashtbl.replace t.dtd_cache collection dtd;
       Some dtd
     | Ok _ -> None
     | Error m -> failwith m)

let sequence_elements_of t ~collection =
  match
    Rdb.Database.query t.database
      (Printf.sprintf "SELECT sequence_elements FROM xml_dtd WHERE collection = %s"
         (lit collection))
  with
  | Ok (_, [ [| Rdb.Value.Text s |] ]) ->
    if s = "" then [] else String.split_on_char ',' s
  | Ok _ -> []
  | Error m -> failwith m

type load_stats = {
  docs : int;
  nodes : int;
  keywords : int;
  new_paths : int;
  transform_s : float;
  validate_s : float;
  shred_s : float;
}

let load_stats_to_string st =
  Printf.sprintf
    "%d docs, %d nodes, %d keywords, %d new paths (transform %.1fms, \
     validate %.1fms, shred %.1fms)"
    st.docs st.nodes st.keywords st.new_paths (st.transform_s *. 1000.)
    (st.validate_s *. 1000.) (st.shred_s *. 1000.)

(* The DTD check of one document; [None] checks nothing. *)
let check_document dtd ~name (doc : Gxml.Tree.document) =
  match dtd with
  | None -> Ok ()
  | Some dtd ->
    (match Gxml.Dtd.validate dtd doc.root with
     | [] -> Ok ()
     | v :: _ ->
       Error
         (Printf.sprintf "document %S is invalid: %s" name
            (Format.asprintf "%a" Gxml.Dtd.pp_violation v)))

let load_document ?validate t ~collection ~name doc =
  let dtd = dtd_of t ~collection in
  let check =
    match Option.value validate ~default:(dtd <> None), dtd with
    | false, _ -> Ok ()
    | true, None -> Error (Printf.sprintf "collection %S has no registered DTD" collection)
    | true, Some _ -> check_document dtd ~name doc
  in
  match check with
  | Error _ as e -> e
  | Ok () ->
    ignore (Shred.delete_document t.database ~collection ~name);
    let sequence_elements = sequence_elements_of t ~collection in
    (match Shred.shred ~sequence_elements t.database ~collection ~name doc with
     | Ok _ -> Ok ()
     | Error _ as e -> e)

let transform_text (s : source) text =
  match s.transform text with
  | docs -> Ok docs
  | exception Line_format.Format_error { entry_index; line; message } ->
    Error
      (Printf.sprintf "flat-file error in entry %d (line %d): %s" entry_index line
         message)
  | exception Enzyme.Bad_entry m -> Error ("bad ENZYME entry: " ^ m)
  | exception Embl.Bad_entry m -> Error ("bad EMBL entry: " ^ m)
  | exception Swissprot.Bad_entry m -> Error ("bad Swiss-Prot entry: " ^ m)
  | exception Genbank.Bad_entry m -> Error ("bad GenBank entry: " ^ m)
  | exception Medline.Bad_entry m -> Error ("bad MEDLINE entry: " ^ m)

let add_doc acc (st : Shred.stats) ~validate_s ~shred_s =
  { acc with
    docs = acc.docs + 1;
    nodes = acc.nodes + st.nodes;
    keywords = acc.keywords + st.keywords;
    new_paths = acc.new_paths + st.new_paths;
    validate_s = acc.validate_s +. validate_s;
    shred_s = acc.shred_s +. shred_s }

(* Ordered installation of per-document results
   [(name, prepared-or-error, validate_s, prepare_s)]. The install stops
   at the first error, keeping the documents before it. On the disk
   backend the whole run of successfully prepared documents installs
   through the spool-then-load path ({!Shred.install_prepared_bulk}); a
   batch that loads the same document name twice (second replaces the
   first mid-batch) falls back to per-document installation, the only
   schedule that reproduces it. *)

let install_per_doc t ~collection acc0 results =
  let rec install acc = function
    | [] -> Ok acc
    | (_, Error m, _, _) :: _ -> Error m
    | (name, Ok prep, validate_s, prepare_s) :: rest ->
      let t4 = Rdb.Obs.now_s () in
      ignore (Shred.delete_document t.database ~collection ~name);
      (match Shred.install_prepared t.database prep with
       | Error _ as e -> e
       | Ok (_, st) ->
         install
           (add_doc acc st ~validate_s
              ~shred_s:(prepare_s +. (Rdb.Obs.now_s () -. t4)))
           rest)
  in
  install acc0 results

let install_bulk t acc0 results =
  (* longest prefix of successful preparations, then the first error *)
  let rec split pre = function
    | (_, Ok p, vs, ps) :: rest -> split ((p, vs, ps) :: pre) rest
    | rest -> (List.rev pre, rest)
  in
  let oks, rest = split [] results in
  let t4 = Rdb.Obs.now_s () in
  match Shred.install_prepared_bulk t.database (List.map (fun (p, _, _) -> p) oks) with
  | Error _ as e -> e
  | Ok per_doc ->
    (match rest with
     | (_, Error m, _, _) :: _ -> Error m
     | _ ->
       let install_s = Rdb.Obs.now_s () -. t4 in
       let acc =
         List.fold_left2
           (fun acc (_, validate_s, shred_s) (_, st) ->
             add_doc acc st ~validate_s ~shred_s)
           acc0 oks per_doc
       in
       Ok { acc with shred_s = acc.shred_s +. install_s })

let batch_has_dup results =
  let seen = Hashtbl.create 16 in
  List.exists
    (fun (name, r, _, _) ->
      match r with
      | Error _ -> false
      | Ok _ ->
        if Hashtbl.mem seen name then true
        else begin
          Hashtbl.add seen name ();
          false
        end)
    results

let install_processed t ~collection acc0 results =
  if Rdb.Database.is_disk t.database && not (batch_has_dup results) then
    install_bulk t acc0 results
  else install_per_doc t ~collection acc0 results

(* ShrubTune: a freshly loaded warehouse should not plan on default
   statistics. Refreshing stats bumps the catalog version, so cached
   plans self-invalidate. *)
let analyze_warehouse t =
  List.iter
    (fun table -> ignore (Rdb.Database.exec t.database ("ANALYZE " ^ table)))
    Shred.tables

(* Transform the whole text (a parse error loads nothing), validate and
   prepare every document ({!Shred.prepare}: the tree walk, no database
   access), then install in document order. *)
let harvest_stats ?(analyze = true) t (s : source) flat_text =
  let collection = s.source_collection in
  let dtd = dtd_of t ~collection in
  let sequence_elements = sequence_elements_of t ~collection in
  let t0 = Rdb.Obs.now_s () in
  match transform_text s flat_text with
  | Error _ as e -> e
  | Ok docs ->
    let transform_s = Rdb.Obs.now_s () -. t0 in
    let results =
      List.map
        (fun (name, doc) ->
          let t1 = Rdb.Obs.now_s () in
          let check = check_document dtd ~name doc in
          let validate_s = Rdb.Obs.now_s () -. t1 in
          match check with
          | Error m -> (name, Error m, validate_s, 0.)
          | Ok () ->
            let t2 = Rdb.Obs.now_s () in
            let prep = Shred.prepare ~sequence_elements ~collection ~name doc in
            (name, Ok prep, validate_s, Rdb.Obs.now_s () -. t2))
        docs
    in
    (match
       install_processed t ~collection
         { docs = 0; nodes = 0; keywords = 0; new_paths = 0; transform_s;
           validate_s = 0.; shred_s = 0. }
         results
     with
     | Ok _ as r ->
       if analyze then analyze_warehouse t;
       r
     | Error _ as e -> e)

let harvest ?analyze t s flat_text =
  match harvest_stats ?analyze t s flat_text with
  | Ok st -> Ok st.docs
  | Error _ as e -> e

let collections t = Shred.collections t.database

let documents t ~collection = Shred.document_names t.database ~collection

let get_document t ~collection ~name =
  match Shred.document_id t.database ~collection ~name with
  | None -> None
  | Some doc_id ->
    (match Shred.reconstruct t.database ~doc_id with
     | Ok doc -> Some doc
     | Error m -> failwith m)

let document_count t ~collection =
  match
    Rdb.Database.query t.database
      (Printf.sprintf "SELECT COUNT(*) FROM xml_doc WHERE collection = %s"
         (lit collection))
  with
  | Ok (_, [ [| Rdb.Value.Int n |] ]) -> n
  | Ok _ -> 0
  | Error m -> failwith m

let node_count t =
  match Rdb.Database.query t.database "SELECT COUNT(*) FROM xml_node" with
  | Ok (_, [ [| Rdb.Value.Int n |] ]) -> n
  | Ok _ -> 0
  | Error m -> failwith m

(* ---------------- built-in sources ---------------- *)

let enzyme_source =
  { source_name = "enzyme";
    source_collection = Enzyme_xml.collection;
    source_dtd = Enzyme_xml.dtd_source;
    source_sequence_elements = [];
    transform =
      (fun text ->
        List.map
          (fun e -> (Enzyme_xml.document_name e, Enzyme_xml.to_document e))
          (Enzyme.parse_many text)) }

let embl_source ~division =
  { source_name = "embl-" ^ String.lowercase_ascii division;
    source_collection = "hlx_embl." ^ String.lowercase_ascii division;
    source_dtd = Embl_xml.dtd_source;
    source_sequence_elements = Embl_xml.sequence_elements;
    transform =
      (fun text ->
        Embl.parse_many text
        |> List.filter (fun (e : Embl.t) ->
            String.lowercase_ascii e.division = String.lowercase_ascii division)
        |> List.map (fun e -> (Embl_xml.document_name e, Embl_xml.to_document e))) }

let swissprot_source =
  { source_name = "swissprot";
    source_collection = Swissprot.collection;
    source_dtd = Swissprot_xml.dtd_source;
    source_sequence_elements = Swissprot_xml.sequence_elements;
    transform =
      (fun text ->
        List.map
          (fun p -> (Swissprot_xml.document_name p, Swissprot_xml.to_document p))
          (Swissprot.parse_many text)) }

let genbank_source =
  { source_name = "genbank";
    source_collection = Genbank_xml.collection;
    source_dtd = Genbank_xml.dtd_source;
    source_sequence_elements = Genbank_xml.sequence_elements;
    transform =
      (fun text ->
        List.map
          (fun g -> (Genbank_xml.document_name g, Genbank_xml.to_document g))
          (Genbank.parse_many text)) }

let medline_source =
  { source_name = "medline";
    source_collection = Medline_xml.collection;
    source_dtd = Medline_xml.dtd_source;
    source_sequence_elements = [];
    transform =
      (fun text ->
        List.map
          (fun m -> (Medline_xml.document_name m, Medline_xml.to_document m))
          (Medline.parse_many text)) }
