(* Tests for the Data Hounds pipeline: flat-file parsing, XML
   transformation, DTD validity, shredding, reconstruction, sync. *)

let check = Alcotest.check
let fail = Alcotest.fail
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool
let list = Alcotest.list

module D = Datahounds

(* ---------------- line format ---------------- *)

let test_line_format_split () =
  let text = "ID   one\nDE   first\n//\nID   two\nDE   second\nDE   more\n//\n" in
  let entries = D.Line_format.split_entries text in
  check int "two entries" 2 (List.length entries);
  let e2 = List.nth entries 1 in
  check (list string) "DE fields" [ "second"; "more" ] (D.Line_format.fields e2 "DE");
  check (Alcotest.option string) "joined" (Some "second more")
    (D.Line_format.joined e2 "DE")

let test_line_format_errors () =
  (match D.Line_format.split_entries "ID   x\n" with
   | exception D.Line_format.Format_error _ -> ()
   | _ -> fail "unterminated entry must fail");
  match D.Line_format.split_entries "I\n//\n" with
  | exception D.Line_format.Format_error _ -> ()
  | entries ->
    (* "I" is 1 char: too short for a code *)
    ignore entries;
    fail "short line must fail"

let test_line_format_roundtrip () =
  let text = "ID   a\nDE   hello world\n//\n" in
  let entries = D.Line_format.split_entries text in
  check string "render roundtrip" text (D.Line_format.render entries)

(* ---------------- ENZYME ---------------- *)

let paper_entry () =
  match D.Enzyme.parse_many D.Enzyme.sample_entry with
  | [ e ] -> e
  | l -> fail (Printf.sprintf "expected 1 entry, got %d" (List.length l))

let test_enzyme_paper_figure2 () =
  let e = paper_entry () in
  check string "EC number" "1.14.17.3" e.ec_number;
  check string "description" "Peptidylglycine monooxygenase" e.description;
  check (list string) "alternate names"
    [ "Peptidyl alpha-amidating enzyme"; "Peptidylglycine 2-hydroxylase" ]
    e.alternate_names;
  check int "one multi-line catalytic activity" 1 (List.length e.catalytic_activities);
  check bool "activity joined across lines" true
    (let a = List.hd e.catalytic_activities in
     String.length a > 40
     && String.sub a 0 15 = "Peptidylglycine");
  check (list string) "cofactors" [ "Copper" ] e.cofactors;
  check int "two comments" 2 (List.length e.comments);
  check (list string) "prosite" [ "PDOC00080" ] e.prosite_refs;
  check int "five swissprot refs" 5 (List.length e.swissprot_refs);
  (match e.swissprot_refs with
   | { accession = "P10731"; entry_name = "AMD_BOVIN" } :: _ -> ()
   | _ -> fail "first swissprot ref wrong");
  check int "no diseases" 0 (List.length e.diseases)

let test_enzyme_roundtrip () =
  let e = paper_entry () in
  let text = D.Enzyme.render [ e ] in
  match D.Enzyme.parse_many text with
  | [ e2 ] ->
    check string "ec" e.ec_number e2.ec_number;
    check (list string) "an" e.alternate_names e2.alternate_names;
    check int "sp refs" (List.length e.swissprot_refs) (List.length e2.swissprot_refs);
    check (list string) "comments" e.comments e2.comments
  | _ -> fail "roundtrip produced wrong entry count"

let test_enzyme_xml_figure6 () =
  let e = paper_entry () in
  let doc = D.Enzyme_xml.to_document e in
  (* Fig. 6 structure *)
  check string "root" "hlx_enzyme" doc.root.tag;
  check bool "valid against Fig. 5 DTD" true
    (Gxml.Dtd.valid D.Enzyme_xml.dtd doc.root);
  (* roundtrip through the XML representation *)
  (match D.Enzyme_xml.of_document doc with
   | Ok e2 -> check string "xml roundtrip ec" e.ec_number e2.ec_number
   | Error m -> fail m);
  (* and through serialized text *)
  let printed = Gxml.Printer.document_to_string ~pretty:true doc in
  let reparsed = Gxml.Parser.parse_document ~keep_ws:false printed in
  match D.Enzyme_xml.of_document reparsed with
  | Ok e3 ->
    check string "print/parse ec" e.ec_number e3.ec_number;
    check int "print/parse refs" 5 (List.length e3.swissprot_refs)
  | Error m -> fail m

let test_enzyme_bad_entries () =
  let bad =
    [ "DE   no id line.\n//\n";
      "ID   1.1.1.1\n//\n" (* no DE *) ]
  in
  List.iter
    (fun text ->
      match D.Enzyme.parse_many text with
      | exception D.Enzyme.Bad_entry _ -> ()
      | _ -> fail (Printf.sprintf "expected Bad_entry for %S" text))
    bad

(* ---------------- EMBL ---------------- *)

let embl_entry () =
  match D.Embl.parse_many D.Embl.sample_entry with
  | [ e ] -> e
  | l -> fail (Printf.sprintf "expected 1 entry, got %d" (List.length l))

let test_embl_parse () =
  let e = embl_entry () in
  check string "accession" "AB000101" e.accession;
  check string "division" "INV" e.division;
  check int "length" 180 e.sequence_length;
  check bool "cdc6 keyword" true (List.mem "cdc6" e.keywords);
  check int "two features" 2 (List.length e.features);
  let cds = List.nth e.features 1 in
  check string "cds key" "CDS" cds.feature_key;
  check int "cds qualifiers" 2 (List.length cds.qualifiers);
  (match List.find_opt (fun (q : D.Embl.qualifier) -> q.qualifier_type = "EC number")
           cds.qualifiers with
   | Some q -> check string "EC number qualifier" "1.14.17.3" q.qualifier_value
   | None -> fail "missing EC number qualifier");
  check int "sequence length matches" 180 (String.length e.sequence)

let test_embl_roundtrip () =
  let e = embl_entry () in
  match D.Embl.parse_many (D.Embl.render [ e ]) with
  | [ e2 ] ->
    check string "acc" e.accession e2.accession;
    check string "sequence" e.sequence e2.sequence;
    check int "features" (List.length e.features) (List.length e2.features);
    let q1 = (List.nth e.features 1).qualifiers in
    let q2 = (List.nth e2.features 1).qualifiers in
    check bool "qualifiers roundtrip" true (q1 = q2)
  | _ -> fail "roundtrip entry count"

let test_embl_xml () =
  let e = embl_entry () in
  let doc = D.Embl_xml.to_document e in
  check bool "valid against DTD" true (Gxml.Dtd.valid D.Embl_xml.dtd doc.root);
  match D.Embl_xml.of_document doc with
  | Ok e2 ->
    check string "roundtrip acc" e.accession e2.accession;
    check bool "features equal" true (e.features = e2.features)
  | Error m -> fail m

(* ---------------- Swiss-Prot ---------------- *)

let sprot_entry () =
  match D.Swissprot.parse_many D.Swissprot.sample_entry with
  | [ p ] -> p
  | l -> fail (Printf.sprintf "expected 1 entry, got %d" (List.length l))

let test_swissprot_parse () =
  let p = sprot_entry () in
  check string "accession" "P10731" p.accession;
  check string "entry name" "AMD_BOVIN" p.entry_name;
  check (Alcotest.option string) "gene" (Some "cdc6") p.gene;
  check int "length" 108 p.seq_length;
  check int "sequence" 108 (String.length p.sequence);
  check int "db refs" 2 (List.length p.db_refs)

let test_swissprot_roundtrip_and_xml () =
  let p = sprot_entry () in
  (match D.Swissprot.parse_many (D.Swissprot.render [ p ]) with
   | [ p2 ] ->
     check string "acc" p.accession p2.accession;
     check string "seq" p.sequence p2.sequence
   | _ -> fail "roundtrip entry count");
  let doc = D.Swissprot_xml.to_document p in
  check bool "valid DTD" true (Gxml.Dtd.valid D.Swissprot_xml.dtd doc.root);
  match D.Swissprot_xml.of_document doc with
  | Ok p3 -> check bool "full record equal" true (p = p3)
  | Error m -> fail m

let fresh_warehouse () = D.Warehouse.create ()

(* ---------------- GenBank ---------------- *)

let genbank_entry () =
  match D.Genbank.parse_many D.Genbank.sample_entry with
  | [ g ] -> g
  | l -> fail (Printf.sprintf "expected 1 entry, got %d" (List.length l))

let test_genbank_parse () =
  let g = genbank_entry () in
  check string "accession" "AB000102" g.accession;
  check string "definition" "Caenorhabditis elegans mcm2 gene, partial sequence"
    g.definition;
  check int "length" 120 g.sequence_length;
  check (list string) "keywords" [ "mcm2"; "replication licensing" ] g.keywords;
  check string "organism" "Caenorhabditis elegans" g.organism;
  check int "sequence parsed" 120 (String.length g.sequence);
  (match g.features with
   | [ _source; cds ] ->
     check string "cds" "CDS" cds.feature_key;
     (match
        List.find_opt
          (fun (q : D.Embl.qualifier) -> q.qualifier_type = "EC number")
          cds.qualifiers
      with
      | Some q -> check string "ec qualifier" "3.6.4.12" q.qualifier_value
      | None -> fail "missing EC qualifier")
   | _ -> fail "expected 2 features")

let test_genbank_roundtrip () =
  let g = genbank_entry () in
  match D.Genbank.parse_many (D.Genbank.render [ g ]) with
  | [ g2 ] -> check bool "roundtrip equal" true (g = g2)
  | _ -> fail "roundtrip entry count"

let test_genbank_of_embl_consistent () =
  (* the same logical entry through both formats yields the same data *)
  let e =
    match D.Embl.parse_many D.Embl.sample_entry with
    | [ e ] -> e
    | _ -> fail "fixture"
  in
  let g = D.Genbank.of_embl e in
  (match D.Genbank.parse_many (D.Genbank.render [ g ]) with
   | [ g2 ] ->
     check string "accession survives" e.accession g2.accession;
     check string "sequence survives" e.sequence g2.sequence;
     check bool "features survive" true (e.features = g2.features)
   | _ -> fail "roundtrip");
  let doc = D.Genbank_xml.to_document g in
  check bool "valid against GenBank DTD" true (Gxml.Dtd.valid D.Genbank_xml.dtd doc.root);
  match D.Genbank_xml.of_document doc with
  | Ok g3 -> check bool "xml roundtrip" true (g = g3)
  | Error m -> fail m

(* ---------------- MEDLINE ---------------- *)

let medline_entry () =
  match D.Medline.parse_many D.Medline.sample_entry with
  | [ m ] -> m
  | l -> fail (Printf.sprintf "expected 1 citation, got %d" (List.length l))

let test_medline_parse () =
  let m = medline_entry () in
  check string "pmid" "11972062" m.pmid;
  check bool "title" true
    (String.length m.title > 10 && String.sub m.title 0 7 = "Crystal");
  check bool "abstract continuation joined" true
    (String.length m.abstract > 60);
  check (list string) "authors" [ "Prigge ST"; "Amzel LM" ] m.authors;
  check int "year" 2002 m.year;
  check (list string) "ec refs" [ "1.14.17.3" ] m.ec_refs

let test_medline_roundtrip_and_xml () =
  let m = medline_entry () in
  (match D.Medline.parse_many (D.Medline.render [ m ]) with
   | [ m2 ] -> check bool "flat roundtrip" true (m = m2)
   | _ -> fail "roundtrip count");
  let doc = D.Medline_xml.to_document m in
  check bool "valid against DTD" true (Gxml.Dtd.valid D.Medline_xml.dtd doc.root);
  match D.Medline_xml.of_document doc with
  | Ok m3 -> check bool "xml roundtrip" true (m = m3)
  | Error m -> fail m

let test_medline_warehouse_join () =
  (* cross-domain: citations join ENZYME through the EC reference *)
  let wh = fresh_warehouse () in
  D.Warehouse.register_source wh D.Warehouse.enzyme_source;
  D.Warehouse.register_source wh D.Warehouse.medline_source;
  (match D.Warehouse.harvest wh D.Warehouse.enzyme_source D.Enzyme.sample_entry with
   | Ok 1 -> ()
   | _ -> fail "enzyme load");
  (match D.Warehouse.harvest wh D.Warehouse.medline_source D.Medline.sample_entry with
   | Ok 1 -> ()
   | _ -> fail "medline load");
  let result =
    Xomatiq.Engine.run_text wh
      {|FOR $e IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry,
          $c IN document("hlx_medline.all")/hlx_citation/db_entry
        WHERE $c//ec_reference = $e/enzyme_id
        RETURN $e/enzyme_id, $c/title|}
  in
  check int "one joined citation" 1 (List.length result.rows);
  (match result.rows with
   | [ [ ec; _title ] ] -> check string "joined on the right EC" "1.14.17.3" ec
   | _ -> fail "row shape")

(* ---------------- shredding ---------------- *)

let test_shred_and_reconstruct () =
  let wh = fresh_warehouse () in
  D.Warehouse.register_source wh D.Warehouse.enzyme_source;
  let e = paper_entry () in
  let doc = D.Enzyme_xml.to_document e in
  (match D.Warehouse.load_document wh ~collection:D.Enzyme_xml.collection
           ~name:"1.14.17.3" doc with
   | Ok () -> ()
   | Error m -> fail m);
  match D.Warehouse.get_document wh ~collection:D.Enzyme_xml.collection
          ~name:"1.14.17.3" with
  | None -> fail "document not found after load"
  | Some doc2 ->
    check bool "reconstruct equals original" true
      (Gxml.Tree.equal_element doc.root doc2.root)

let test_shred_generic_schema () =
  let wh = fresh_warehouse () in
  D.Warehouse.register_source wh D.Warehouse.enzyme_source;
  let e = paper_entry () in
  ignore
    (D.Warehouse.load_document wh ~collection:D.Enzyme_xml.collection
       ~name:e.ec_number (D.Enzyme_xml.to_document e));
  let db = D.Warehouse.db wh in
  let one sql =
    match Rdb.Database.query_exn db sql with
    | _, [ [| Rdb.Value.Int n |] ] -> n
    | _ -> fail ("bad result for " ^ sql)
  in
  check int "one document" 1 (one "SELECT COUNT(*) FROM xml_doc");
  check bool "nodes exist" true (one "SELECT COUNT(*) FROM xml_node" > 20);
  (* inline values: enzyme_id element carries its text *)
  let _, rows =
    Rdb.Database.query_exn db
      "SELECT n.sval FROM xml_node n, xml_path p WHERE n.path_id = p.path_id \
       AND p.path = '/hlx_enzyme/db_entry/enzyme_id'"
  in
  (match rows with
   | [ [| Rdb.Value.Text v |] ] -> check string "inline sval" "1.14.17.3" v
   | _ -> fail "enzyme_id node not found");
  (* keywords present, lowercased *)
  check bool "keyword rows" true
    (one "SELECT COUNT(*) FROM xml_keyword WHERE word = 'peptidylglycine'" >= 1);
  (* region encoding sanity: every node's last_desc >= its own id *)
  check int "region encoding holds" 0
    (one "SELECT COUNT(*) FROM xml_node WHERE last_desc < node_id")

let test_shred_order_preserved () =
  (* Two alternate names must come back in document order. *)
  let wh = fresh_warehouse () in
  D.Warehouse.register_source wh D.Warehouse.enzyme_source;
  let e = paper_entry () in
  ignore
    (D.Warehouse.load_document wh ~collection:D.Enzyme_xml.collection
       ~name:e.ec_number (D.Enzyme_xml.to_document e));
  match D.Warehouse.get_document wh ~collection:D.Enzyme_xml.collection
          ~name:e.ec_number with
  | None -> fail "missing"
  | Some doc ->
    (match D.Enzyme_xml.of_document doc with
     | Ok e2 ->
       check (list string) "alternate names in order"
         [ "Peptidyl alpha-amidating enzyme"; "Peptidylglycine 2-hydroxylase" ]
         e2.alternate_names;
       check bool "swissprot refs in order" true
         (List.map (fun (r : D.Enzyme.swissprot_ref) -> r.accession) e2.swissprot_refs
          = [ "P10731"; "P19021"; "P14925"; "P08478"; "P12890" ])
     | Error m -> fail m)

let test_sequence_not_keyword_indexed () =
  let wh = fresh_warehouse () in
  let src = D.Warehouse.embl_source ~division:"inv" in
  D.Warehouse.register_source wh src;
  (match D.Warehouse.harvest wh src D.Embl.sample_entry with
   | Ok 1 -> ()
   | Ok n -> fail (Printf.sprintf "expected 1 doc, got %d" n)
   | Error m -> fail m);
  let db = D.Warehouse.db wh in
  (* the DNA string is one long word that must not be in the keyword table;
     but description words must be *)
  let count sql =
    match Rdb.Database.query_exn db sql with
    | _, [ [| Rdb.Value.Int n |] ] -> n
    | _ -> fail "bad count"
  in
  check bool "description keyword present" true
    (count "SELECT COUNT(*) FROM xml_keyword WHERE word = 'cdc6'" >= 1);
  let _, seq_rows =
    Rdb.Database.query_exn db
      "SELECT n.is_seq FROM xml_node n, xml_path p WHERE n.path_id = p.path_id \
       AND p.path = '/hlx_n_sequence/db_entry/sequence'"
  in
  (match seq_rows with
   | [ [| Rdb.Value.Int 1 |] ] -> ()
   | _ -> fail "sequence node not flagged is_seq");
  (* no keyword attached to the sequence node *)
  check int "sequence yields no keywords" 0
    (count
       "SELECT COUNT(*) FROM xml_keyword k, xml_node n, xml_path p \
        WHERE k.node_id = n.node_id AND k.doc_id = n.doc_id \
        AND n.path_id = p.path_id AND p.path = '/hlx_n_sequence/db_entry/sequence'")

let test_path_ids_matching () =
  let wh = fresh_warehouse () in
  D.Warehouse.register_source wh D.Warehouse.enzyme_source;
  let e = paper_entry () in
  ignore
    (D.Warehouse.load_document wh ~collection:D.Enzyme_xml.collection
       ~name:e.ec_number (D.Enzyme_xml.to_document e));
  let db = D.Warehouse.db wh in
  let ids pat = D.Shred.path_ids_matching db (Gxml.Path.parse pat) in
  check int "descendant enzyme_id" 1 (List.length (ids "//enzyme_id"));
  check int "absolute path" 1 (List.length (ids "hlx_enzyme/db_entry/enzyme_id"));
  check int "attribute path" 1 (List.length (ids "//reference/@name"));
  check int "no match" 0 (List.length (ids "//nonexistent"));
  check bool "wildcard matches several" true (List.length (ids "hlx_enzyme/db_entry/*") > 3)

let test_delete_document () =
  let wh = fresh_warehouse () in
  D.Warehouse.register_source wh D.Warehouse.enzyme_source;
  let e = paper_entry () in
  ignore
    (D.Warehouse.load_document wh ~collection:D.Enzyme_xml.collection
       ~name:e.ec_number (D.Enzyme_xml.to_document e));
  check bool "delete" true
    (D.Shred.delete_document (D.Warehouse.db wh) ~collection:D.Enzyme_xml.collection
       ~name:e.ec_number);
  let db = D.Warehouse.db wh in
  let count sql =
    match Rdb.Database.query_exn db sql with
    | _, [ [| Rdb.Value.Int n |] ] -> n
    | _ -> fail "bad count"
  in
  check int "no nodes left" 0 (count "SELECT COUNT(*) FROM xml_node");
  check int "no keywords left" 0 (count "SELECT COUNT(*) FROM xml_keyword")

(* shred/reconstruct roundtrip over random documents *)
let shred_roundtrip_prop =
  let tag_gen = QCheck.Gen.oneofl [ "a"; "b"; "item"; "entry"; "list" ] in
  let text_gen = QCheck.Gen.oneofl [ "v"; "12"; "3.5"; "hello world"; "x & y" ] in
  let rec elem_gen depth =
    let open QCheck.Gen in
    let attrs =
      list_size (int_bound 2) (pair (oneofl [ "k"; "id"; "t" ]) text_gen)
      >|= fun l -> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) l
    in
    let children =
      if depth = 0 then return []
      else
        list_size (int_bound 3)
          (frequency
             [ (1, text_gen >|= fun t -> Gxml.Tree.Text t);
               (2, elem_gen (depth - 1) >|= fun e -> Gxml.Tree.Element e) ])
    in
    map3 (fun tag attrs kids -> Gxml.Tree.element ~attrs tag kids) tag_gen attrs children
  in
  QCheck.Test.make ~count:80 ~name:"shred then reconstruct is identity"
    (QCheck.make (elem_gen 3) ~print:Gxml.Printer.element_to_string)
    (fun root ->
      let wh = fresh_warehouse () in
      let doc = Gxml.Tree.document root in
      match D.Warehouse.load_document ~validate:false wh ~collection:"c" ~name:"d" doc with
      | Error m -> QCheck.Test.fail_report m
      | Ok () ->
        (match D.Warehouse.get_document wh ~collection:"c" ~name:"d" with
         | None -> false
         | Some doc2 -> Gxml.Tree.equal_element (Gxml.Tree.normalize root) doc2.root))

(* ---------------- sync ---------------- *)

let universe_docs enzymes =
  List.map
    (fun (e : D.Enzyme.t) -> (e.ec_number, D.Enzyme_xml.to_document e))
    enzymes

let three_enzymes () =
  match D.Enzyme.parse_many D.Enzyme.sample_entry with
  | [ e ] ->
    [ e;
      { e with ec_number = "2.2.2.2"; description = "Second enzyme" };
      { e with ec_number = "3.3.3.3"; description = "Third enzyme" } ]
  | _ -> fail "fixture"

let test_sync_initial_and_idempotent () =
  let wh = fresh_warehouse () in
  D.Warehouse.register_source wh D.Warehouse.enzyme_source;
  let docs = universe_docs (three_enzymes ()) in
  (match D.Sync.sync_documents wh ~collection:D.Enzyme_xml.collection docs with
   | Ok r ->
     check int "added" 3 r.added;
     check int "unchanged" 0 r.unchanged
   | Error m -> fail m);
  (* the same snapshot again: nothing added twice *)
  match D.Sync.sync_documents wh ~collection:D.Enzyme_xml.collection docs with
  | Ok r ->
    check int "idempotent: added" 0 r.added;
    check int "idempotent: updated" 0 r.updated;
    check int "idempotent: unchanged" 3 r.unchanged;
    check int "still 3 documents" 3
      (D.Warehouse.document_count wh ~collection:D.Enzyme_xml.collection)
  | Error m -> fail m

let test_sync_update_and_remove () =
  let wh = fresh_warehouse () in
  D.Warehouse.register_source wh D.Warehouse.enzyme_source;
  let enzymes = three_enzymes () in
  ignore (D.Sync.sync_documents wh ~collection:D.Enzyme_xml.collection
            (universe_docs enzymes));
  let enzymes' =
    match enzymes with
    | a :: b :: _c :: [] -> [ a; { b with description = "Second enzyme revised" } ]
    | _ -> fail "fixture"
  in
  let events = ref [] in
  let trigger ev = events := ev :: !events in
  (match D.Sync.sync_documents ~remove_missing:true ~triggers:[ trigger ] wh
           ~collection:D.Enzyme_xml.collection (universe_docs enzymes') with
   | Ok r ->
     check int "updated" 1 r.updated;
     check int "removed" 1 r.removed;
     check int "unchanged" 1 r.unchanged;
     check int "two trigger events" 2 (List.length !events)
   | Error m -> fail m);
  check int "two documents remain" 2
    (D.Warehouse.document_count wh ~collection:D.Enzyme_xml.collection);
  (* the update took effect *)
  match D.Warehouse.get_document wh ~collection:D.Enzyme_xml.collection ~name:"2.2.2.2" with
  | Some doc ->
    (match D.Enzyme_xml.of_document doc with
     | Ok e -> check string "revised description" "Second enzyme revised" e.description
     | Error m -> fail m)
  | None -> fail "2.2.2.2 missing"

let test_sync_rejects_duplicates () =
  let wh = fresh_warehouse () in
  D.Warehouse.register_source wh D.Warehouse.enzyme_source;
  let e = paper_entry () in
  let doc = D.Enzyme_xml.to_document e in
  match D.Sync.sync_documents wh ~collection:D.Enzyme_xml.collection
          [ ("x", doc); ("x", doc) ] with
  | Error _ -> ()
  | Ok _ -> fail "duplicate names must be rejected"

(* ---------------- workload generators ---------------- *)

let test_generator_deterministic () =
  let cfg = { Workload.Genbio.default_config with n_enzymes = 20; n_embl = 20; n_sprot = 20 } in
  let u1 = Workload.Genbio.generate cfg in
  let u2 = Workload.Genbio.generate cfg in
  check bool "same seed, same universe" true
    (Workload.Genbio.enzyme_flat u1 = Workload.Genbio.enzyme_flat u2
     && Workload.Genbio.embl_flat u1 = Workload.Genbio.embl_flat u2);
  let u3 = Workload.Genbio.generate { cfg with seed = 43 } in
  check bool "different seed differs" true
    (Workload.Genbio.enzyme_flat u1 <> Workload.Genbio.enzyme_flat u3)

let test_generator_flat_files_parse () =
  let cfg = { Workload.Genbio.default_config with n_enzymes = 30; n_embl = 30; n_sprot = 30 } in
  let u = Workload.Genbio.generate cfg in
  check int "enzymes parse back" 30
    (List.length (D.Enzyme.parse_many (Workload.Genbio.enzyme_flat u)));
  check int "embl parse back" 30
    (List.length (D.Embl.parse_many (Workload.Genbio.embl_flat u)));
  check int "sprot parse back" 30
    (List.length (D.Swissprot.parse_many (Workload.Genbio.swissprot_flat u)))

let test_generator_correlations () =
  let cfg =
    { Workload.Genbio.default_config with
      n_enzymes = 50; n_embl = 100; n_sprot = 50; ec_link_rate = 1.0 }
  in
  let u = Workload.Genbio.generate cfg in
  let ec_numbers =
    List.map (fun (e : D.Enzyme.t) -> e.ec_number) u.enzymes
  in
  let linked =
    List.filter
      (fun (e : D.Embl.t) ->
        List.exists
          (fun (f : D.Embl.feature) ->
            List.exists
              (fun (q : D.Embl.qualifier) ->
                q.qualifier_type = "EC number" && List.mem q.qualifier_value ec_numbers)
              f.qualifiers)
          e.features)
      u.embl_entries
  in
  check int "all EMBL entries link to a generated enzyme" 100 (List.length linked)

let test_load_universe () =
  let cfg = { Workload.Genbio.default_config with n_enzymes = 10; n_embl = 10; n_sprot = 10 } in
  let u = Workload.Genbio.generate cfg in
  let wh = fresh_warehouse () in
  (match Workload.Genbio.load_universe wh u with
   | Ok () -> ()
   | Error m -> fail m);
  check int "enzyme docs" 10
    (D.Warehouse.document_count wh ~collection:"hlx_enzyme.DEFAULT");
  check int "embl docs" 10 (D.Warehouse.document_count wh ~collection:"hlx_embl.inv");
  check int "sprot docs" 10 (D.Warehouse.document_count wh ~collection:"hlx_sprot.all");
  check (list string) "collections" [ "hlx_embl.inv"; "hlx_enzyme.DEFAULT"; "hlx_sprot.all" ]
    (D.Warehouse.collections wh)

(* ---------------- harvest errors ---------------- *)

let contains_sub s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Harvest [text] into a fresh warehouse: the result and how many
   documents it left installed. *)
let harvest_error source text =
  let wh = fresh_warehouse () in
  D.Warehouse.register_source wh source;
  let r = D.Warehouse.harvest wh source text in
  let docs =
    D.Warehouse.document_count wh ~collection:source.D.Warehouse.source_collection
  in
  D.Warehouse.close wh;
  (r, docs)

let test_harvest_error_positions () =
  (* a malformed third entry: the error names its whole-file entry/line
     position, and a parse failure installs nothing *)
  let good n =
    Printf.sprintf "ID   %d.1.1.1\nDE   Enzyme number %d.\n//" n n
  in
  let bad_text =
    String.concat "\n" [ good 1; good 2; "ID   3.1.1.1"; "X"; "//"; good 4; "" ]
  in
  (match harvest_error D.Warehouse.enzyme_source bad_text with
   | Error m, docs ->
     check bool ("position is whole-file: " ^ m) true
       (contains_sub m "entry 2" && contains_sub m "line 8");
     check int "installs nothing" 0 docs
   | Ok _, _ -> fail "expected the load to fail");
  (* an unterminated final entry is an error too *)
  (match
     harvest_error D.Warehouse.enzyme_source
       (String.concat "\n" [ good 1; "ID   2.1.1.1" ])
   with
   | Error _, docs -> check int "unterminated: installs nothing" 0 docs
   | Ok _, _ -> fail "expected the unterminated load to fail");
  (* an entry with no ID line before a malformed one: the whole text is
     split into entries before any entry is parsed, so the malformed
     line is the error *)
  let no_id =
    String.concat "\n"
      [ "ID   1.1.1.1"; "DE   Enzyme one."; "//"; "DE   Entry without an ID line.";
        "//"; "ID   3.1.1.1"; "X"; "//" ]
  in
  match harvest_error D.Warehouse.enzyme_source no_id with
  | Error m, docs ->
    check bool ("reports the malformed line: " ^ m) true
      (contains_sub m "flat-file error in entry 2 (line 7)");
    check int "no ID line: installs nothing" 0 docs
  | Ok _, _ -> fail "expected the no-ID-line load to fail"

(* ---------------- durability ---------------- *)

let with_temp_wal f =
  let path = Filename.temp_file "xomatiq_wh" ".wal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_warehouse_durability () =
  with_temp_wal @@ fun path ->
  let e = paper_entry () in
  (* session 1: register + load, then close *)
  let wh = D.Warehouse.create ~wal:path () in
  D.Warehouse.register_source wh D.Warehouse.enzyme_source;
  (match D.Warehouse.harvest wh D.Warehouse.enzyme_source D.Enzyme.sample_entry with
   | Ok 1 -> ()
   | _ -> fail "load");
  D.Warehouse.close wh;
  (* session 2: everything is back — documents, DTD registry, indexes *)
  let wh2 = D.Warehouse.create ~wal:path () in
  check (list string) "collections recovered" [ D.Enzyme_xml.collection ]
    (D.Warehouse.collections wh2);
  check bool "dtd registry recovered" true
    (D.Warehouse.dtd_of wh2 ~collection:D.Enzyme_xml.collection <> None);
  (match D.Warehouse.get_document wh2 ~collection:D.Enzyme_xml.collection
           ~name:e.ec_number with
   | Some doc ->
     (match D.Enzyme_xml.of_document doc with
      | Ok e2 -> check string "entry recovered" e.description e2.description
      | Error m -> fail m)
   | None -> fail "document lost across restart");
  (* and the warehouse is still queryable through XomatiQ *)
  let result =
    Xomatiq.Engine.run_text wh2
      {|FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme RETURN $a//enzyme_id|}
  in
  check int "queryable after recovery" 1 (List.length result.rows);
  D.Warehouse.close wh2

let test_warehouse_crash_mid_sync () =
  with_temp_wal @@ fun path ->
  let enzymes = three_enzymes () in
  let wh = D.Warehouse.create ~wal:path () in
  D.Warehouse.register_source wh D.Warehouse.enzyme_source;
  (match D.Sync.sync_documents wh ~collection:D.Enzyme_xml.collection
           (universe_docs enzymes) with
   | Ok _ -> ()
   | Error m -> fail m);
  (* simulate a crash in the middle of a transaction: BEGIN + deletes,
     no COMMIT, handle dropped *)
  let db = D.Warehouse.db wh in
  ignore (Rdb.Database.exec_exn db "BEGIN");
  ignore (Rdb.Database.exec_exn db "DELETE FROM xml_node");
  (* no COMMIT, no close: the WAL has an unsealed transaction *)
  let wh2 = D.Warehouse.create ~wal:path () in
  check int "all documents survive the crashed transaction" 3
    (D.Warehouse.document_count wh2 ~collection:D.Enzyme_xml.collection);
  (match D.Warehouse.get_document wh2 ~collection:D.Enzyme_xml.collection
           ~name:"2.2.2.2" with
   | Some _ -> ()
   | None -> fail "node rows lost");
  D.Warehouse.close wh2;
  D.Warehouse.close wh

let test_embl_division_filter () =
  (* an embl source only harvests entries of its division *)
  let inv = embl_entry () in
  let pln = { inv with D.Embl.accession = "AB999999"; division = "PLN" } in
  let flat = D.Embl.render [ inv; pln ] in
  let wh = fresh_warehouse () in
  let inv_src = D.Warehouse.embl_source ~division:"inv" in
  let pln_src = D.Warehouse.embl_source ~division:"pln" in
  D.Warehouse.register_source wh inv_src;
  D.Warehouse.register_source wh pln_src;
  (match D.Warehouse.harvest wh inv_src flat with
   | Ok 1 -> ()
   | Ok n -> fail (Printf.sprintf "inv: expected 1, got %d" n)
   | Error m -> fail m);
  (match D.Warehouse.harvest wh pln_src flat with
   | Ok 1 -> ()
   | Ok n -> fail (Printf.sprintf "pln: expected 1, got %d" n)
   | Error m -> fail m);
  check (list string) "separate collections"
    [ "hlx_embl.inv"; "hlx_embl.pln" ]
    (D.Warehouse.collections wh);
  check (list string) "pln holds the pln entry" [ "AB999999" ]
    (D.Warehouse.documents wh ~collection:"hlx_embl.pln")

(* ---------------- remote mirroring ---------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "xomatiq_remote" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(* ---------------- mem vs disk harvests ---------------- *)

let dump_tables wh =
  let db = D.Warehouse.db wh in
  String.concat "\n"
    (List.map
       (fun sql ->
         match Rdb.Database.query db sql with
         | Ok (_, rows) ->
           String.concat "\n"
             (List.map
                (fun row ->
                  String.concat "|"
                    (List.map Rdb.Value.to_literal (Array.to_list row)))
                rows)
         | Error m -> fail m)
       [ "SELECT doc_id, collection, name, root_tag FROM xml_doc ORDER BY doc_id";
         "SELECT path_id, path FROM xml_path ORDER BY path_id";
         "SELECT doc_id, node_id, parent_id, ord, kind, name, path_id, sval, \
          nval, is_seq, last_desc FROM xml_node ORDER BY doc_id, node_id";
         "SELECT doc_id, node_id, word FROM xml_keyword ORDER BY doc_id, \
          node_id, word" ])

(* The in-memory backend installs a harvest one document at a time, the
   disk backend spools and bulk-loads it; a batch naming a document twice
   and a sync go per document on both. After every step the four shred
   tables must be byte-identical. *)
let test_mem_disk_identical () =
  with_temp_dir @@ fun dir ->
  let u =
    Workload.Genbio.generate
      { Workload.Genbio.default_config with
        seed = 7; n_enzymes = 20; n_embl = 20; n_sprot = 12 }
  in
  let mem =
    (* pinned: the XOMATIQ_STORAGE=disk run must still compare backends *)
    let prev = Sys.getenv_opt "XOMATIQ_STORAGE" in
    Unix.putenv "XOMATIQ_STORAGE" "mem";
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "XOMATIQ_STORAGE" (Option.value prev ~default:""))
      D.Warehouse.create
  in
  let disk = D.Warehouse.create ~data_dir:dir () in
  Fun.protect
    ~finally:(fun () -> D.Warehouse.close mem; D.Warehouse.close disk)
  @@ fun () ->
  check bool "backends differ" true
    (not (Rdb.Database.is_disk (D.Warehouse.db mem))
     && Rdb.Database.is_disk (D.Warehouse.db disk));
  let step what f =
    List.iter
      (fun wh ->
        match f wh with
        | Ok _ -> ()
        | Error m -> fail (Printf.sprintf "%s: %s" what m))
      [ mem; disk ];
    let dm = dump_tables mem in
    check bool (what ^ ": tables hold rows") true (String.length dm > 0);
    check bool (what ^ ": mem and disk tables byte-identical") true
      (dm = dump_tables disk)
  in
  let harvest src text wh = D.Warehouse.harvest wh src text in
  let embl = D.Warehouse.embl_source ~division:"inv" in
  step "universe" (fun wh -> Workload.Genbio.load_universe wh u);
  let u2 =
    { u with
      enzymes = Workload.Genbio.mutate_enzymes ~seed:8 ~fraction:0.5 u.enzymes;
      embl_entries =
        List.mapi
          (fun i (e : D.Embl.t) ->
            if i mod 3 = 0 then { e with description = e.description ^ " revised" }
            else e)
          u.embl_entries }
  in
  step "second release" (fun wh ->
      Result.bind
        (harvest D.Warehouse.enzyme_source (Workload.Genbio.enzyme_flat u2) wh)
        (fun _ -> harvest embl (Workload.Genbio.embl_flat u2) wh));
  let enzyme_text = Workload.Genbio.enzyme_flat u2 in
  step "batch naming every document twice"
    (harvest D.Warehouse.enzyme_source (enzyme_text ^ enzyme_text));
  let u3 =
    { u2 with
      enzymes =
        List.filteri (fun i _ -> i mod 4 <> 0)
          (Workload.Genbio.mutate_enzymes ~seed:9 ~fraction:0.3 u2.enzymes) }
  in
  step "sync with remove_missing" (fun wh ->
      D.Sync.sync_source ~remove_missing:true wh D.Warehouse.enzyme_source
        (Workload.Genbio.enzyme_flat u3))

let test_remote_publish_poll () =
  with_temp_dir @@ fun dir ->
  let remote = D.Remote.create ~root:dir in
  check bool "no release yet" true (D.Remote.poll remote ~last_seen:None = `Unchanged);
  D.Remote.publish remote ~version:"2026-07" "payload-1";
  (match D.Remote.poll remote ~last_seen:None with
   | `New_release "2026-07" -> ()
   | _ -> fail "expected new release");
  (match D.Remote.fetch remote with
   | Ok ("2026-07", "payload-1") -> ()
   | Ok _ -> fail "wrong payload"
   | Error m -> fail m);
  check bool "seen release is unchanged" true
    (D.Remote.poll remote ~last_seen:(Some "2026-07") = `Unchanged);
  D.Remote.publish remote ~version:"2026-08" "payload-2";
  match D.Remote.poll remote ~last_seen:(Some "2026-07") with
  | `New_release "2026-08" -> ()
  | _ -> fail "expected newer release"

let test_remote_mirror_cycle () =
  with_temp_dir @@ fun dir ->
  let remote = D.Remote.create ~root:dir in
  let wh = fresh_warehouse () in
  D.Warehouse.register_source wh D.Warehouse.enzyme_source;
  let enzymes = three_enzymes () in
  D.Remote.publish remote ~version:"r1" (D.Enzyme.render enzymes);
  (* cycle 1: full load *)
  (match D.Remote.mirror remote wh D.Warehouse.enzyme_source ~last_seen:None with
   | Ok (`Synced ("r1", report)) -> check int "r1 added" 3 report.added
   | Ok _ -> fail "expected sync"
   | Error m -> fail m);
  (* cycle 2: nothing new — no warehouse work at all *)
  (match D.Remote.mirror remote wh D.Warehouse.enzyme_source ~last_seen:(Some "r1") with
   | Ok `Unchanged -> ()
   | Ok _ -> fail "expected unchanged"
   | Error m -> fail m);
  (* cycle 3: a revised release *)
  let revised =
    List.map
      (fun (e : D.Enzyme.t) ->
        if e.ec_number = "2.2.2.2" then { e with description = "Renamed enzyme" } else e)
      enzymes
  in
  D.Remote.publish remote ~version:"r2" (D.Enzyme.render revised);
  match D.Remote.mirror remote wh D.Warehouse.enzyme_source ~last_seen:(Some "r1") with
  | Ok (`Synced ("r2", report)) ->
    check int "r2 updated" 1 report.updated;
    check int "r2 unchanged" 2 report.unchanged
  | Ok _ -> fail "expected r2 sync"
  | Error m -> fail m

(* ---------------- format fixpoint properties ---------------- *)

(* render is a normal form: parse(render(x)) renders identically *)
let format_fixpoint_props =
  let universe_gen =
    QCheck.Gen.map
      (fun seed ->
        Workload.Genbio.generate
          { Workload.Genbio.default_config with
            seed; n_enzymes = 8; n_embl = 8; n_sprot = 8; n_citations = 8;
            seq_length = 30 })
      (QCheck.Gen.int_bound 10_000)
  in
  [ QCheck.Test.make ~count:40 ~name:"ENZYME render/parse fixpoint"
      (QCheck.make universe_gen ~print:(fun _ -> "universe"))
      (fun u ->
        let text = Workload.Genbio.enzyme_flat u in
        let reparsed = D.Enzyme.render (D.Enzyme.parse_many text) in
        D.Enzyme.render (D.Enzyme.parse_many reparsed) = reparsed);
    QCheck.Test.make ~count:40 ~name:"EMBL render/parse fixpoint"
      (QCheck.make universe_gen ~print:(fun _ -> "universe"))
      (fun u ->
        let text = Workload.Genbio.embl_flat u in
        let reparsed = D.Embl.render (D.Embl.parse_many text) in
        D.Embl.render (D.Embl.parse_many reparsed) = reparsed);
    QCheck.Test.make ~count:40 ~name:"Swiss-Prot render/parse fixpoint"
      (QCheck.make universe_gen ~print:(fun _ -> "universe"))
      (fun u ->
        let text = Workload.Genbio.swissprot_flat u in
        let reparsed = D.Swissprot.render (D.Swissprot.parse_many text) in
        D.Swissprot.render (D.Swissprot.parse_many reparsed) = reparsed);
    QCheck.Test.make ~count:40 ~name:"GenBank render/parse fixpoint"
      (QCheck.make universe_gen ~print:(fun _ -> "universe"))
      (fun u ->
        let text = Workload.Genbio.genbank_flat u in
        let reparsed = D.Genbank.render (D.Genbank.parse_many text) in
        D.Genbank.render (D.Genbank.parse_many reparsed) = reparsed);
    QCheck.Test.make ~count:40 ~name:"MEDLINE render/parse fixpoint"
      (QCheck.make universe_gen ~print:(fun _ -> "universe"))
      (fun u ->
        let text = Workload.Genbio.medline_flat u in
        let reparsed = D.Medline.render (D.Medline.parse_many text) in
        D.Medline.render (D.Medline.parse_many reparsed) = reparsed) ]

let tokenize_props =
  [ QCheck.Test.make ~count:300 ~name:"tokenize invariants"
      QCheck.(string_gen_of_size (QCheck.Gen.int_bound 60) QCheck.Gen.printable)
      (fun s ->
        let tokens = D.Shred.tokenize s in
        List.for_all
          (fun t ->
            String.length t >= 2
            && String.for_all
                 (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
                 t)
          tokens
        && List.length (List.sort_uniq compare tokens) = List.length tokens);
    QCheck.Test.make ~count:300 ~name:"tokenize is case-insensitive"
      QCheck.(string_gen_of_size (QCheck.Gen.int_bound 60) QCheck.Gen.printable)
      (fun s ->
        D.Shred.tokenize (String.uppercase_ascii s) = D.Shred.tokenize s) ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "datahounds"
    [ ("line-format",
       [ Alcotest.test_case "split" `Quick test_line_format_split;
         Alcotest.test_case "errors" `Quick test_line_format_errors;
         Alcotest.test_case "roundtrip" `Quick test_line_format_roundtrip ]);
      ("enzyme",
       [ Alcotest.test_case "paper figure 2" `Quick test_enzyme_paper_figure2;
         Alcotest.test_case "flat roundtrip" `Quick test_enzyme_roundtrip;
         Alcotest.test_case "xml figure 6" `Quick test_enzyme_xml_figure6;
         Alcotest.test_case "bad entries" `Quick test_enzyme_bad_entries ]);
      ("embl",
       [ Alcotest.test_case "parse" `Quick test_embl_parse;
         Alcotest.test_case "roundtrip" `Quick test_embl_roundtrip;
         Alcotest.test_case "xml" `Quick test_embl_xml;
         Alcotest.test_case "division filter" `Quick test_embl_division_filter ]);
      ("swissprot",
       [ Alcotest.test_case "parse" `Quick test_swissprot_parse;
         Alcotest.test_case "roundtrip+xml" `Quick test_swissprot_roundtrip_and_xml ]);
      ("genbank",
       [ Alcotest.test_case "parse" `Quick test_genbank_parse;
         Alcotest.test_case "roundtrip" `Quick test_genbank_roundtrip;
         Alcotest.test_case "of_embl consistent" `Quick test_genbank_of_embl_consistent ]);
      ("medline",
       [ Alcotest.test_case "parse" `Quick test_medline_parse;
         Alcotest.test_case "roundtrip+xml" `Quick test_medline_roundtrip_and_xml;
         Alcotest.test_case "warehouse join" `Quick test_medline_warehouse_join ]);
      ("shred",
       [ Alcotest.test_case "reconstruct" `Quick test_shred_and_reconstruct;
         Alcotest.test_case "generic schema" `Quick test_shred_generic_schema;
         Alcotest.test_case "order preserved" `Quick test_shred_order_preserved;
         Alcotest.test_case "sequence flag" `Quick test_sequence_not_keyword_indexed;
         Alcotest.test_case "path ids" `Quick test_path_ids_matching;
         Alcotest.test_case "delete document" `Quick test_delete_document ]);
      qsuite "shred-props" [ shred_roundtrip_prop ];
      ("sync",
       [ Alcotest.test_case "initial+idempotent" `Quick test_sync_initial_and_idempotent;
         Alcotest.test_case "update+remove" `Quick test_sync_update_and_remove;
         Alcotest.test_case "duplicate names" `Quick test_sync_rejects_duplicates ]);
      ("remote",
       [ Alcotest.test_case "publish/poll/fetch" `Quick test_remote_publish_poll;
         Alcotest.test_case "mirror cycle" `Quick test_remote_mirror_cycle ]);
      ("harvest-errors",
       [ Alcotest.test_case "error positions" `Quick test_harvest_error_positions ]);
      ("durability",
       [ Alcotest.test_case "restart recovery" `Quick test_warehouse_durability;
         Alcotest.test_case "crash mid-sync" `Quick test_warehouse_crash_mid_sync ]);
      qsuite "format-fixpoints" format_fixpoint_props;
      qsuite "tokenize-props" tokenize_props;
      ("workload",
       [ Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
         Alcotest.test_case "flat files parse" `Quick test_generator_flat_files_parse;
         Alcotest.test_case "correlations" `Quick test_generator_correlations;
         Alcotest.test_case "load universe" `Quick test_load_universe ]);
      ("mem-vs-disk",
       [ Alcotest.test_case "harvests and sync byte-identical" `Quick
           test_mem_disk_identical ]);
    ]
