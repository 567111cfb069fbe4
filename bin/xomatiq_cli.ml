(* xomatiq — command-line front end to the Data Hounds + XomatiQ system.

   The GUI of the paper (Figs. 7, 10, 12) is a thin layer over: showing
   collection DTDs as trees, formulating FLWR queries, and rendering
   results as a table or XML. This CLI exposes the same operations over a
   WAL-backed warehouse file so sessions persist across invocations.

     xomatiq gen --out /tmp/data --enzymes 200 --embl 300 --sprot 300
     xomatiq harvest --db wh.wal --source enzyme /tmp/data/enzyme.dat
     xomatiq collections --db wh.wal
     xomatiq dtd --db wh.wal hlx_enzyme.DEFAULT
     xomatiq query --db wh.wal 'FOR $a IN ... RETURN ...'
     xomatiq explain --db wh.wal 'FOR $a IN ... RETURN ...'
     xomatiq sync --db wh.wal --source enzyme /tmp/data/enzyme-v2.dat
     xomatiq sql --db wh.wal 'SELECT COUNT(1) FROM xml_node'  *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* [db] below is a triple: WAL path, --storage choice, --data-dir.
   Disk storage without an explicit directory keeps the pages beside
   the log, like XOMATIQ_STORAGE=disk does. *)
let with_warehouse (db_path, storage, data_dir) f =
  let data_dir =
    match storage, data_dir with
    | Some `Mem, _ ->
      (* an explicit --storage mem overrides the environment *)
      Unix.putenv "XOMATIQ_STORAGE" "mem";
      None
    | Some `Disk, None -> Some (db_path ^ ".pages")
    | _, dir -> dir
  in
  let wh = Datahounds.Warehouse.create ~wal:db_path ?data_dir () in
  Fun.protect ~finally:(fun () -> Datahounds.Warehouse.close wh) (fun () -> f wh)

let db_path (path, _, _) = path

let source_of_name name division =
  match String.lowercase_ascii name with
  | "enzyme" -> Ok Datahounds.Warehouse.enzyme_source
  | "embl" -> Ok (Datahounds.Warehouse.embl_source ~division)
  | "swissprot" | "sprot" -> Ok Datahounds.Warehouse.swissprot_source
  | "genbank" -> Ok Datahounds.Warehouse.genbank_source
  | "medline" -> Ok Datahounds.Warehouse.medline_source
  | other -> Error (Printf.sprintf "unknown source %S (enzyme | embl | swissprot | genbank | medline)" other)

(* ---------------- common arguments ---------------- *)

let db_arg =
  let wal_arg =
    let doc = "Warehouse WAL file (created if absent; state persists)." in
    Arg.(required & opt (some string) None & info [ "db" ] ~docv:"FILE" ~doc)
  in
  let storage_arg =
    let doc =
      "Storage backend: $(b,mem) keeps rows and indexes in memory \
       (rebuilt from the WAL at open), $(b,disk) keeps them in paged \
       heap files and on-disk B+trees served through a buffer pool \
       (bounded memory; pool size via $(b,XOMATIQ_POOL_MB)). Default: \
       $(b,XOMATIQ_STORAGE), else mem."
    in
    Arg.(value
         & opt (some (enum [ ("mem", `Mem); ("disk", `Disk) ])) None
         & info [ "storage" ] ~docv:"KIND" ~doc)
  in
  let data_dir_arg =
    let doc =
      "Page directory for $(b,--storage disk) (default: the WAL file \
       plus a .pages suffix). Implies disk storage."
    in
    Arg.(value & opt (some string) None
         & info [ "data-dir" ] ~docv:"DIR" ~doc)
  in
  Term.(const (fun wal storage data_dir -> (wal, storage, data_dir))
        $ wal_arg $ storage_arg $ data_dir_arg)

let division_arg =
  let doc = "EMBL division for the embl source (default inv)." in
  Arg.(value & opt string "inv" & info [ "division" ] ~doc)

let source_arg =
  let doc = "Source kind: enzyme, embl, swissprot, genbank or medline." in
  Arg.(required & opt (some string) None & info [ "source" ] ~doc)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Flat file to load.")

let metrics_json_arg =
  let doc =
    "Write a JSON snapshot of every registered runtime metric (plan-cache \
     and path-cache counters, server counters, latency histograms) to \
     $(docv) on exit."
  in
  Arg.(value & opt (some string) None
       & info [ "metrics-json" ] ~docv:"FILE" ~doc)

(* The snapshot keeps the flat metric names at the top level (CI greps
   them) and splices the same [storage] / [replication] objects METRICS
   replies carry into the closing brace. *)
let dump_metrics_json ?wh ?repl_json = function
  | None -> ()
  | Some path ->
    let base = Rdb.Obs.dump_json () in
    let extra =
      (match wh with
       | Some wh ->
         Printf.sprintf ", \"storage\": %s" (Xserver.Server.storage_json wh)
       | None -> "")
      ^ Printf.sprintf ", \"replication\": %s"
          (Option.value repl_json ~default:"{\"role\": \"standalone\"}")
    in
    let json =
      let n = String.length base in
      if n > 0 && base.[n - 1] = '}' then
        String.sub base 0 (n - 1) ^ extra ^ "}"
      else base
    in
    let oc = open_out_bin path in
    output_string oc json;
    output_char oc '\n';
    close_out oc

let parse_hostport s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
    let host = String.sub s 0 i
    and port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 -> Ok (host, p)
    | _ -> Error (Printf.sprintf "bad port in %S" s))
  | _ -> Error (Printf.sprintf "%S is not HOST:PORT" s)

let hostport_conv =
  let parse s =
    match parse_hostport s with Ok v -> Ok v | Error m -> Error (`Msg m)
  in
  let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
  Arg.conv (parse, print)

(* ---------------- commands ---------------- *)

let harvest_cmd =
  let run db source division no_analyze file =
    match source_of_name source division with
    | Error m -> `Error (false, m)
    | Ok src ->
      with_warehouse db @@ fun wh ->
      Datahounds.Warehouse.register_source wh src;
      (match
         Datahounds.Warehouse.harvest_stats ~analyze:(not no_analyze) wh src
           (read_file file)
       with
       | Ok st ->
         Printf.printf "Loaded %d document(s) into %s (%d nodes total).\n"
           st.Datahounds.Warehouse.docs src.source_collection
           (Datahounds.Warehouse.node_count wh);
         Printf.printf "load stats: %s\n"
           (Datahounds.Warehouse.load_stats_to_string st);
         `Ok ()
       | Error m -> `Error (false, m))
  in
  let no_analyze_arg =
    let doc =
      "Skip the automatic post-harvest ANALYZE of the shred tables \
       (fresh optimizer statistics are normally left behind)."
    in
    Arg.(value & flag & info [ "no-analyze" ] ~doc)
  in
  let doc = "Harvest a flat file into the warehouse (Data Hounds pipeline)." in
  Cmd.v (Cmd.info "harvest" ~doc)
    Term.(ret (const run $ db_arg $ source_arg $ division_arg $ no_analyze_arg
               $ file_arg))

let sync_cmd =
  let run db source division remove_missing file =
    match source_of_name source division with
    | Error m -> `Error (false, m)
    | Ok src ->
      with_warehouse db @@ fun wh ->
      Datahounds.Warehouse.register_source wh src;
      let trigger ev = Format.printf "trigger: %a@." Datahounds.Sync.pp_event ev in
      (match
         Datahounds.Sync.sync_source ~remove_missing ~triggers:[ trigger ] wh src
           (read_file file)
       with
       | Ok r ->
         Printf.printf "sync: %d added, %d updated, %d removed, %d unchanged.\n"
           r.added r.updated r.removed r.unchanged;
         `Ok ()
       | Error m -> `Error (false, m))
  in
  let remove_arg =
    Arg.(value & flag & info [ "remove-missing" ]
           ~doc:"Delete warehoused documents absent from the new snapshot.")
  in
  let doc = "Incrementally refresh the warehouse from a new source snapshot." in
  Cmd.v (Cmd.info "sync" ~doc)
    Term.(ret (const run $ db_arg $ source_arg $ division_arg $ remove_arg
               $ file_arg))

let collections_cmd =
  let run db =
    with_warehouse db @@ fun wh ->
    List.iter
      (fun c ->
        Printf.printf "%-24s %5d documents\n" c
          (Datahounds.Warehouse.document_count wh ~collection:c))
      (Datahounds.Warehouse.collections wh)
  in
  let doc = "List warehoused collections." in
  Cmd.v (Cmd.info "collections" ~doc) Term.(const run $ db_arg)

(* Render a DTD as the indented element tree the GUI's left panel shows. *)
let dtd_tree (dtd : Gxml.Dtd.t) =
  let buf = Buffer.create 512 in
  let rec particle_children = function
    | Gxml.Dtd.Elem n -> [ n ]
    | Gxml.Dtd.Seq ps | Gxml.Dtd.Choice ps -> List.concat_map particle_children ps
    | Gxml.Dtd.Opt p | Gxml.Dtd.Star p | Gxml.Dtd.Plus p -> particle_children p
  in
  let children name =
    match Gxml.Dtd.element_model dtd name with
    | Some (Gxml.Dtd.Children p) -> particle_children p
    | Some (Gxml.Dtd.Mixed names) -> names
    | _ -> []
  in
  let rec emit depth seen name =
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_string buf name;
    let attrs = Gxml.Dtd.element_attrs dtd name in
    if attrs <> [] then begin
      Buffer.add_string buf "  [";
      Buffer.add_string buf
        (String.concat ", " (List.map (fun (a : Gxml.Dtd.attr_decl) -> "@" ^ a.attr_name) attrs));
      Buffer.add_char buf ']'
    end;
    Buffer.add_char buf '\n';
    if not (List.mem name seen) then
      List.iter (emit (depth + 1) (name :: seen)) (children name)
  in
  (match dtd.root_name with
   | Some root -> emit 0 [] root
   | None -> ());
  Buffer.contents buf

let dtd_cmd =
  let run db collection =
    with_warehouse db @@ fun wh ->
    match Datahounds.Warehouse.dtd_of wh ~collection with
    | Some dtd ->
      print_string (dtd_tree dtd);
      print_newline ();
      print_string (Gxml.Dtd.to_string dtd);
      `Ok ()
    | None -> `Error (false, Printf.sprintf "no DTD registered for %S" collection)
  in
  let coll_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"COLLECTION"
           ~doc:"Collection name, e.g. hlx_enzyme.DEFAULT.")
  in
  let doc = "Show a collection's DTD as the GUI element tree plus declarations." in
  Cmd.v (Cmd.info "dtd" ~doc) Term.(ret (const run $ db_arg $ coll_arg))

let query_cmd =
  let run db format from_file profile cache_stats metrics_json query_text =
    with_warehouse db @@ fun wh ->
    let text =
      match from_file with
      | Some path -> read_file path
      | None -> query_text
    in
    if String.trim text = "" then `Error (true, "empty query")
    else
      match Xomatiq.Engine.run_text ~trace:profile wh text with
      | result ->
        (* surface likely typos: paths the collection DTDs cannot produce *)
        (match Xomatiq.Parser.parse text with
         | ast ->
           List.iter
             (fun w ->
               Format.eprintf "warning: %a@." Xomatiq.Lint.pp_warning w)
             (Xomatiq.Lint.check wh ast)
         | exception _ -> ());
        (match format with
         | "xml" ->
           print_string
             (Gxml.Printer.document_to_string ~pretty:true
                (Xomatiq.Engine.result_to_xml result))
         | _ -> print_string (Xomatiq.Engine.result_to_table result));
        Option.iter
          (fun tr ->
            print_newline ();
            print_string (Xomatiq.Engine.trace_to_string tr))
          result.Xomatiq.Engine.trace;
        if cache_stats then begin
          let hits, misses = Xomatiq.Engine.cache_stats () in
          Printf.printf "plan cache: %d hit(s), %d miss(es)\n" hits misses
        end;
        dump_metrics_json ~wh metrics_json;
        `Ok ()
      | exception Xomatiq.Engine.Query_error m ->
        dump_metrics_json ~wh metrics_json;
        `Error (false, m)
  in
  let format_arg =
    Arg.(value & opt string "table" & info [ "f"; "format" ]
           ~doc:"Output format: table or xml.")
  in
  let from_file_arg =
    Arg.(value & opt (some file) None & info [ "file" ] ~doc:"Read the query from a file.")
  in
  let profile_arg =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Print per-stage pipeline timings, chosen indexes and \
                 operator counters after the result.")
  in
  let cache_stats_arg =
    Arg.(value & flag & info [ "plan-cache-stats" ]
           ~doc:"Print translated-plan cache hits/misses for this process \
                 after the result (profiled runs bypass the cache).")
  in
  let text_arg =
    Arg.(value & pos 0 string "" & info [] ~docv:"QUERY" ~doc:"FLWR query text.")
  in
  let doc = "Run a XomatiQ FLWR query against the warehouse." in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(ret (const run $ db_arg $ format_arg $ from_file_arg $ profile_arg
               $ cache_stats_arg $ metrics_json_arg $ text_arg))

let explain_cmd =
  let run db analyze query_text =
    with_warehouse db @@ fun wh ->
    match Xomatiq.Parser.parse query_text with
    | q ->
      let explain = if analyze then Xomatiq.Engine.explain_analyze else Xomatiq.Engine.explain in
      (match explain wh q with
       | s -> print_endline s; `Ok ()
       | exception Xomatiq.Engine.Query_error m -> `Error (false, m))
    | exception e -> `Error (false, Xomatiq.Parser.error_to_string e)
  in
  let analyze_arg =
    Arg.(value & flag & info [ "analyze" ]
           ~doc:"Execute the query and annotate each plan operator with \
                 rows, index probes and wall time (EXPLAIN ANALYZE).")
  in
  let text_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"FLWR query text.")
  in
  let doc = "Show the SQL translation and the relational physical plan." in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(ret (const run $ db_arg $ analyze_arg $ text_arg))

let sql_cmd =
  let run db statement =
    with_warehouse db @@ fun wh ->
    let database = Datahounds.Warehouse.db wh in
    match Rdb.Database.exec database statement with
    | Ok (Rdb.Database.Rows { columns; rows }) ->
      let string_rows =
        List.map (fun r -> Array.to_list (Array.map Rdb.Value.to_string r)) rows
      in
      print_string (Xomatiq.Tagger.to_table ~labels:columns string_rows);
      `Ok ()
    | Ok (Rdb.Database.Affected n) ->
      Printf.printf "%d row(s) affected\n" n;
      `Ok ()
    | Ok (Rdb.Database.Explained plan) ->
      print_string plan;
      `Ok ()
    | Ok (Rdb.Database.Done msg) ->
      print_endline msg;
      `Ok ()
    | Error m -> `Error (false, m)
  in
  let stmt_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"SQL statement.")
  in
  let doc = "Run raw SQL against the underlying relational engine." in
  Cmd.v (Cmd.info "sql" ~doc) Term.(ret (const run $ db_arg $ stmt_arg))

let mirror_cmd =
  (* last-integrated release versions live next to the WAL file *)
  let state_path db = db ^ ".releases" in
  let load_state db =
    if Sys.file_exists (state_path db) then
      read_file (state_path db)
      |> String.split_on_char '\n'
      |> List.filter_map (fun line ->
          match String.index_opt line ' ' with
          | Some i ->
            Some
              ( String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1) )
          | None -> None)
    else []
  in
  let save_state db state =
    let oc = open_out (state_path db) in
    List.iter (fun (s, v) -> Printf.fprintf oc "%s %s\n" s v) state;
    close_out oc
  in
  let run db source division remote_root =
    match source_of_name source division with
    | Error m -> `Error (false, m)
    | Ok src ->
      with_warehouse db @@ fun wh ->
      Datahounds.Warehouse.register_source wh src;
      let remote = Datahounds.Remote.create ~root:remote_root in
      let state = load_state (db_path db) in
      let last_seen = List.assoc_opt src.source_name state in
      let trigger ev = Format.printf "trigger: %a@." Datahounds.Sync.pp_event ev in
      (match Datahounds.Remote.mirror ~triggers:[ trigger ] remote wh src ~last_seen with
       | Ok `Unchanged ->
         Printf.printf "%s: up to date%s.\n" src.source_name
           (match last_seen with Some v -> " (release " ^ v ^ ")" | None -> "");
         `Ok ()
       | Ok (`Synced (version, r)) ->
         Printf.printf
           "%s: integrated release %s — %d added, %d updated, %d unchanged.\n"
           src.source_name version r.added r.updated r.unchanged;
         save_state (db_path db)
           ((src.source_name, version)
            :: List.remove_assoc src.source_name state);
         `Ok ()
       | Error m -> `Error (false, m))
  in
  let remote_arg =
    Arg.(required & opt (some dir) None & info [ "remote" ] ~docv:"DIR"
           ~doc:"Remote release directory (releases/*.dat + CURRENT pointer).")
  in
  let doc =
    "One Data Hound cycle: poll a remote for a new release and integrate it."
  in
  Cmd.v (Cmd.info "mirror" ~doc)
    Term.(ret (const run $ db_arg $ source_arg $ division_arg $ remote_arg))

let documents_cmd =
  let run db collection =
    with_warehouse db @@ fun wh ->
    if List.mem collection (Datahounds.Warehouse.collections wh) then begin
      List.iter print_endline (Datahounds.Warehouse.documents wh ~collection);
      `Ok ()
    end
    else `Error (false, Printf.sprintf "no collection %S in the warehouse" collection)
  in
  let coll_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"COLLECTION"
           ~doc:"Collection name.")
  in
  let doc = "List the documents warehoused in a collection." in
  Cmd.v (Cmd.info "documents" ~doc) Term.(ret (const run $ db_arg $ coll_arg))

let reconstruct_cmd =
  let run db collection name =
    with_warehouse db @@ fun wh ->
    match Datahounds.Warehouse.get_document wh ~collection ~name with
    | Some doc ->
      print_string (Gxml.Printer.document_to_string ~pretty:true doc);
      `Ok ()
    | None ->
      `Error (false, Printf.sprintf "no document %S in collection %S" name collection)
  in
  let coll_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"COLLECTION"
           ~doc:"Collection name.")
  in
  let name_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME"
           ~doc:"Document name (e.g. an accession number).")
  in
  let doc =
    "Rebuild a warehoused document from its relational tuples (Relation2XML)."
  in
  Cmd.v (Cmd.info "reconstruct" ~doc) Term.(ret (const run $ db_arg $ coll_arg $ name_arg))

let gen_cmd =
  let run out seed enzymes embl sprot =
    let cfg =
      { Workload.Genbio.default_config with
        seed; n_enzymes = enzymes; n_embl = embl; n_sprot = sprot }
    in
    let u = Workload.Genbio.generate cfg in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let write name text =
      let oc = open_out_bin (Filename.concat out name) in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" (Filename.concat out name)
    in
    write "enzyme.dat" (Workload.Genbio.enzyme_flat u);
    write "embl.dat" (Workload.Genbio.embl_flat u);
    write "swissprot.dat" (Workload.Genbio.swissprot_flat u)
  in
  let out_arg =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Output directory for the generated flat files.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.") in
  let enz_arg = Arg.(value & opt int 200 & info [ "enzymes" ] ~doc:"ENZYME entry count.") in
  let embl_arg = Arg.(value & opt int 300 & info [ "embl" ] ~doc:"EMBL entry count.") in
  let sprot_arg = Arg.(value & opt int 300 & info [ "sprot" ] ~doc:"Swiss-Prot entry count.") in
  let doc = "Generate synthetic format-faithful flat files for experiments." in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(const run $ out_arg $ seed_arg $ enz_arg $ embl_arg $ sprot_arg)

let stats_cmd =
  let run db =
    with_warehouse db @@ fun wh ->
    let database = Datahounds.Warehouse.db wh in
    let count sql =
      match Rdb.Database.query database sql with
      | Ok (_, [ [| Rdb.Value.Int n |] ]) -> n
      | _ -> 0
    in
    print_endline "collections:";
    List.iter
      (fun c ->
        Printf.printf "  %-24s %6d documents\n" c
          (Datahounds.Warehouse.document_count wh ~collection:c))
      (Datahounds.Warehouse.collections wh);
    Printf.printf "totals:\n";
    Printf.printf "  %-24s %6d\n" "node tuples" (count "SELECT COUNT(1) FROM xml_node");
    Printf.printf "  %-24s %6d\n" "keyword postings"
      (count "SELECT COUNT(1) FROM xml_keyword");
    Printf.printf "  %-24s %6d\n" "distinct keywords"
      (count "SELECT COUNT(DISTINCT word) FROM xml_keyword");
    Printf.printf "  %-24s %6d\n" "element paths"
      (count "SELECT COUNT(1) FROM xml_path");
    print_endline "indexes:";
    let cat = Rdb.Database.catalog database in
    List.iter
      (fun tname ->
        match Rdb.Catalog.find_table cat tname with
        | None -> ()
        | Some tbl ->
          List.iter
            (fun idx ->
              Printf.printf "  %-28s %9s  %7d keys %8d entries\n"
                (Rdb.Index.name idx)
                (match Rdb.Index.kind idx with
                 | Rdb.Index.Hash -> "hash"
                 | Rdb.Index.Btree -> "b+tree")
                (Rdb.Index.cardinality idx)
                (Rdb.Index.entry_count idx))
            (Rdb.Table.indexes tbl))
      [ "xml_doc"; "xml_path"; "xml_node"; "xml_keyword" ]
  in
  let doc = "Warehouse statistics: collections, tuple counts, index cardinalities." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ db_arg)

let shell_cmd =
  let run db =
    with_warehouse db @@ fun wh ->
    let format = ref "table" in
    (* Errors go to stderr so piped output stays clean, and any failed
       statement makes a non-interactive (scripted) shell exit non-zero. *)
    let had_error = ref false in
    let report_error m =
      had_error := true;
      Printf.eprintf "error: %s\n%!" m
    in
    let print_result result =
      match !format with
      | "xml" ->
        print_string
          (Gxml.Printer.document_to_string ~pretty:true
             (Xomatiq.Engine.result_to_xml result))
      | _ -> print_string (Xomatiq.Engine.result_to_table result)
    in
    let help () =
      print_string
        "Enter a FLWR query terminated by ';'. Commands:\n\
        \  :collections          list warehoused collections\n\
        \  :documents NAME       list documents of a collection\n\
        \  :dtd NAME             show a collection's DTD tree\n\
        \  :sql STATEMENT;       run raw SQL\n\
        \  :explain QUERY;       show translation + physical plan\n\
        \  :format table|xml     choose result rendering\n\
        \  :cache                translated-plan cache hit/miss counters\n\
        \  :quit                 leave\n"
    in
    let run_query text =
      match Xomatiq.Engine.run_text wh text with
      | result -> print_result result
      | exception Xomatiq.Engine.Query_error m -> report_error m
    in
    let run_sql text =
      match Rdb.Database.exec (Datahounds.Warehouse.db wh) text with
      | Ok (Rdb.Database.Rows { columns; rows }) ->
        print_string
          (Xomatiq.Tagger.to_table ~labels:columns
             (List.map (fun r -> Array.to_list (Array.map Rdb.Value.to_string r)) rows))
      | Ok (Rdb.Database.Affected n) -> Printf.printf "%d row(s) affected\n" n
      | Ok (Rdb.Database.Explained p) -> print_string p
      | Ok (Rdb.Database.Done m) -> print_endline m
      | Error m -> report_error m
    in
    let run_explain text =
      match Xomatiq.Parser.parse text with
      | q ->
        (try print_endline (Xomatiq.Engine.explain wh q)
         with Xomatiq.Engine.Query_error m -> report_error m)
      | exception e -> report_error (Xomatiq.Parser.error_to_string e)
    in
    help ();
    let buffer = Buffer.create 256 in
    let rec loop () =
      if Buffer.length buffer = 0 then print_string "xomatiq> "
      else print_string "      -> ";
      flush stdout;
      match input_line stdin with
      | exception End_of_file -> ()
      | line ->
        let trimmed = String.trim line in
        let continue_loop = ref true in
        if Buffer.length buffer = 0 && String.length trimmed > 0 && trimmed.[0] = ':'
        then begin
          (* single-line command unless it needs a ';' *)
          match String.split_on_char ' ' trimmed with
          | ":quit" :: _ | ":q" :: _ -> continue_loop := false
          | ":help" :: _ -> help ()
          | ":collections" :: _ ->
            List.iter print_endline (Datahounds.Warehouse.collections wh)
          | ":documents" :: name :: _ ->
            List.iter print_endline (Datahounds.Warehouse.documents wh ~collection:name)
          | ":dtd" :: name :: _ ->
            (match Datahounds.Warehouse.dtd_of wh ~collection:name with
             | Some dtd -> print_string (dtd_tree dtd)
             | None -> report_error (Printf.sprintf "no DTD for %S" name))
          | ":format" :: f :: _ ->
            if f = "table" || f = "xml" then format := f
            else print_endline "format is 'table' or 'xml'"
          | ":cache" :: _ ->
            let hits, misses = Xomatiq.Engine.cache_stats () in
            Printf.printf "plan cache: %d hit(s), %d miss(es)\n" hits misses
          | cmd :: _ when cmd = ":sql" || cmd = ":explain" ->
            Buffer.add_string buffer trimmed;
            Buffer.add_char buffer '\n'
          | _ -> print_endline "unknown command; :help lists them"
        end
        else begin
          Buffer.add_string buffer line;
          Buffer.add_char buffer '\n'
        end;
        (* a ';' anywhere in the buffered text completes a statement *)
        let text = Buffer.contents buffer in
        (match String.index_opt text ';' with
         | Some i when !continue_loop ->
           let stmt = String.trim (String.sub text 0 i) in
           Buffer.clear buffer;
           if stmt <> "" then begin
             if String.length stmt > 4 && String.sub stmt 0 4 = ":sql" then
               run_sql (String.trim (String.sub stmt 4 (String.length stmt - 4)))
             else if String.length stmt > 8 && String.sub stmt 0 8 = ":explain" then
               run_explain (String.trim (String.sub stmt 8 (String.length stmt - 8)))
             else run_query stmt
           end
         | _ -> ());
        if !continue_loop then loop ()
    in
    loop ();
    if !had_error && not (Unix.isatty Unix.stdin) then
      `Error (false, "one or more statements failed")
    else `Ok ()
  in
  let doc = "Interactive query shell over a warehouse ('; ' terminates queries)." in
  Cmd.v (Cmd.info "shell" ~doc) Term.(ret (const run $ db_arg))

(* ---------------- the gRNA service layer ---------------- *)

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
         ~doc:"Address to bind/connect to.")

let port_arg ~default ~doc =
  Arg.(value & opt int default & info [ "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let run db host port max_clients queue_depth query_timeout idle_timeout
      write_timeout pipeline_window repl_port replicate_from
      checkpoint_every metrics_json =
    if max_clients < 1 then `Error (true, "--max-clients must be >= 1")
    else if queue_depth < 0 then `Error (true, "--queue-depth must be >= 0")
    else if pipeline_window < 1 then
      `Error (true, "--pipeline-window must be >= 1")
    else begin
      with_warehouse db @@ fun wh ->
      let database = Datahounds.Warehouse.db wh in
      (* every serve has a WAL (--db is required), so DONE trailers
         always carry a real replication position *)
      let primary =
        match repl_port with
        | None -> None
        | Some p ->
          Some (Replication.Primary.start ~host ~port:p database)
      in
      let replica =
        match replicate_from with
        | None -> None
        | Some (rhost, rport) ->
          Some (Replication.Replica.start ~host:rhost ~port:rport database)
      in
      let done_seq, repl_status =
        match replica with
        | Some rep ->
          ( (fun () -> Replication.Replica.applied rep),
            fun () -> Replication.Replica.status_json rep )
        | None -> (
          (fun () -> Rdb.Database.wal_position database),
          match primary with
          | Some prim -> fun () -> Replication.Primary.status_json prim
          | None -> fun () -> "{\"role\": \"standalone\"}")
      in
      let cfg =
        { Xserver.Server.default_config with
          host; port; max_clients; queue_depth;
          query_timeout_s = query_timeout; idle_timeout_s = idle_timeout;
          write_timeout_s = write_timeout; pipeline_window;
          read_only = replica <> None;
          done_seq = Some done_seq; repl_status = Some repl_status }
      in
      let ckpt_stop = Atomic.make false in
      let ckpt_thread =
        match primary, checkpoint_every with
        | Some prim, Some every when every > 0. ->
          Some
            (Thread.create
               (fun () ->
                 (* sleep in half-second slices so shutdown stays prompt
                    however long the period is *)
                 let rec sleep left =
                   if left > 0. && not (Atomic.get ckpt_stop) then begin
                     Thread.delay (Float.min left 0.5);
                     sleep (left -. 0.5)
                   end
                 in
                 let rec go () =
                   if not (Atomic.get ckpt_stop) then begin
                     sleep every;
                     if not (Atomic.get ckpt_stop) then
                       (try Replication.Primary.checkpoint prim
                        with _ -> ());
                     go ()
                   end
                 in
                 go ())
               ())
        | _ -> None
      in
      let finish () =
        Atomic.set ckpt_stop true;
        Option.iter Thread.join ckpt_thread;
        Option.iter Replication.Replica.stop replica;
        Option.iter Replication.Primary.stop primary
      in
      (match Xserver.Server.run cfg wh with
       | () ->
         finish ();
         dump_metrics_json ~wh ~repl_json:(repl_status ()) metrics_json;
         `Ok ()
       | exception Unix.Unix_error (e, _, _) ->
         finish ();
         `Error (false, Printf.sprintf "cannot serve on %s:%d: %s" host port
                   (Unix.error_message e)))
    end
  in
  let max_clients_arg =
    Arg.(value & opt int 32 & info [ "max-clients" ] ~docv:"N"
           ~doc:"Concurrent admitted sessions; more connections wait or are shed.")
  in
  let queue_depth_arg =
    Arg.(value & opt int 16 & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Connections allowed to wait for a session slot before the \
                 server sheds with SERVER_BUSY.")
  in
  let query_timeout_arg =
    Arg.(value & opt (some float) None & info [ "query-timeout" ] ~docv:"SECONDS"
           ~doc:"Per-query wall-clock budget; an overrunning query is \
                 canceled at the next operator boundary and answered with a \
                 typed TIMEOUT error (the connection stays usable).")
  in
  let idle_timeout_arg =
    Arg.(value & opt (some float) None & info [ "idle-timeout" ] ~docv:"SECONDS"
           ~doc:"Reap connections idle this long.")
  in
  let write_timeout_arg =
    Arg.(value & opt float 10. & info [ "write-timeout" ] ~docv:"SECONDS"
           ~doc:"Disconnect a client that cannot absorb a response chunk \
                 within this long (slow-client protection).")
  in
  let pipeline_window_arg =
    Arg.(value & opt int 32 & info [ "pipeline-window" ] ~docv:"W"
           ~doc:"Requests a client may pipeline per connection before the \
                 server stops reading it.")
  in
  let repl_port_arg =
    Arg.(value & opt (some int) None & info [ "repl-port" ] ~docv:"PORT"
           ~doc:"Also listen for read replicas on $(docv): committed WAL \
                 records stream to every connected replica \
                 (xomatiq-repl/1), and METRICS reports per-replica lag.")
  in
  let replicate_from_arg =
    Arg.(value & opt (some hostport_conv) None
         & info [ "replicate-from" ] ~docv:"HOST:PORT"
             ~doc:"Run as a read-only replica of the primary whose \
                   $(b,--repl-port) listens at $(docv). Writes are \
                   rejected with a typed READ_ONLY error; the local WAL \
                   and pages mirror the primary's stream.")
  in
  let checkpoint_every_arg =
    Arg.(value & opt (some float) None
         & info [ "checkpoint-every" ] ~docv:"SECONDS"
             ~doc:"With $(b,--repl-port): checkpoint periodically and \
                   truncate the WAL prefix every connected replica has \
                   acknowledged, keeping the log flat under sustained \
                   writes.")
  in
  let doc =
    "Serve the warehouse over TCP (queries, SQL, EXPLAIN, metrics) with \
     admission control, per-query timeouts and graceful SIGTERM drain."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(ret (const run $ db_arg $ host_arg
               $ port_arg ~default:7788 ~doc:"Port to listen on (0 = ephemeral)."
               $ max_clients_arg $ queue_depth_arg $ query_timeout_arg
               $ idle_timeout_arg $ write_timeout_arg
               $ pipeline_window_arg $ repl_port_arg $ replicate_from_arg
               $ checkpoint_every_arg $ metrics_json_arg))

(* Crude but dependency-free: pull one "name": <int> out of a metrics
   JSON snapshot (names are unique — Obs renders a flat object per kind). *)
let metric_of_json json name =
  let needle = "\"" ^ name ^ "\": " in
  let nlen = String.length needle and jlen = String.length json in
  let rec find i =
    if i + nlen > jlen then None
    else if String.sub json i nlen = needle then begin
      let s = i + nlen in
      let e = ref s in
      while
        !e < jlen && (match json.[!e] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr e
      done;
      int_of_string_opt (String.sub json s (!e - s))
    end
    else find (i + 1)
  in
  find 0

let connect_cmd =
  let run host port window replicas =
    match
      Xserver.Client.Routed.connect ~host ~busy_retry_for_s:5. ~replicas
        ~port ()
    with
    | exception Unix.Unix_error (e, _, _) ->
      `Error (false, Printf.sprintf "cannot connect to %s:%d: %s" host port
                (Unix.error_message e))
    | exception Xserver.Client.Server_error (code, m) ->
      `Error (false, Printf.sprintf "[%s] %s" code m)
    | routed ->
      let c = Xserver.Client.Routed.primary routed in
      let had_error = ref false in
      let report_error m =
        had_error := true;
        Printf.eprintf "error: %s\n%!" m
      in
      let help () =
        print_string
          "Enter a FLWR query terminated by ';'. Commands:\n\
          \  :sql STATEMENT;       run raw SQL on the server\n\
          \  :explain QUERY;       show translation + physical plan\n\
          \  :analyze QUERY;       EXPLAIN ANALYZE (executes the query)\n\
          \  :format table|xml     choose result rendering (session)\n\
          \  :strategy keyword|like  contains() rewrite strategy (session)\n\
          \  :cache                translated-plan cache hit/miss counters\n\
          \  :metrics              full server metrics snapshot (JSON)\n\
          \  :ping                 round-trip liveness probe\n\
          \  :quit                 leave\n"
      in
      let guard f =
        match f () with
        | () -> ()
        | exception Xserver.Client.Server_error (code, m) ->
          report_error (Printf.sprintf "[%s] %s" code m)
      in
      let set name value =
        guard (fun () ->
            print_endline (Xserver.Client.set_option c ~name ~value))
      in
      let print_summary (s : Xserver.Protocol.summary) =
        Printf.eprintf "(%d row(s), %.1f ms%s)\n%!" s.Xserver.Protocol.sum_rows
          s.Xserver.Protocol.sum_exec_ms
          (if s.Xserver.Protocol.sum_cached then ", plan cache hit" else "")
      in
      (* --window W > 1: plain queries are batched and sent pipelined, W
         on the wire at once; anything else (a :command, EOF) first
         flushes the batch so output order matches input order. *)
      let batch = ref [] in
      let flush_batch () =
        match List.rev !batch with
        | [] -> ()
        | texts ->
          batch := [];
          guard (fun () ->
              List.iter
                (function
                  | Ok (body, s) ->
                    print_string body;
                    print_summary s
                  | Error (code, m) ->
                    report_error (Printf.sprintf "[%s] %s" code m))
                (Xserver.Client.query_pipelined ~window c texts))
      in
      let run_query text =
        if window > 1 then begin
          batch := text :: !batch;
          if List.length !batch >= window then flush_batch ()
        end
        else
          guard (fun () ->
              let body, s = Xserver.Client.Routed.query routed text in
              print_string body;
              print_summary s)
      in
      let run_sql text =
        flush_batch ();
        guard (fun () ->
            print_string (fst (Xserver.Client.Routed.sql routed text)))
      in
      let run_explain ~analyze text =
        flush_batch ();
        guard (fun () -> print_string (Xserver.Client.explain ~analyze c text))
      in
      help ();
      let buffer = Buffer.create 256 in
      let rec loop () =
        if Buffer.length buffer = 0 then print_string "xomatiq@remote> "
        else print_string "            -> ";
        flush stdout;
        match input_line stdin with
        | exception End_of_file -> ()
        | line ->
          let trimmed = String.trim line in
          let continue_loop = ref true in
          if Buffer.length buffer = 0 && String.length trimmed > 0
             && trimmed.[0] = ':'
             && (match String.split_on_char ' ' trimmed with
                 | cmd :: _ -> cmd <> ":sql" && cmd <> ":explain" && cmd <> ":analyze"
                 | [] -> true)
          then begin
            flush_batch ();
            match String.split_on_char ' ' trimmed with
            | ":quit" :: _ | ":q" :: _ -> continue_loop := false
            | ":help" :: _ -> help ()
            | ":format" :: f :: _ -> set "format" f
            | ":strategy" :: s :: _ -> set "strategy" s
            | ":ping" :: _ ->
              guard (fun () -> ignore (Xserver.Client.ping c "ping"); print_endline "pong")
            | ":metrics" :: _ ->
              guard (fun () -> print_endline (Xserver.Client.metrics c))
            | ":cache" :: _ ->
              guard (fun () ->
                  let json = Xserver.Client.metrics c in
                  let v n = Option.value ~default:0 (metric_of_json json n) in
                  Printf.printf "plan cache: %d hit(s), %d miss(es)\n"
                    (v "engine.plan_cache.hits") (v "engine.plan_cache.misses"))
            | _ -> print_endline "unknown command; :help lists them"
          end
          else begin
            Buffer.add_string buffer line;
            Buffer.add_char buffer '\n'
          end;
          let text = Buffer.contents buffer in
          (match String.index_opt text ';' with
           | Some i when !continue_loop ->
             let stmt = String.trim (String.sub text 0 i) in
             Buffer.clear buffer;
             if stmt <> "" then begin
               if String.length stmt > 4 && String.sub stmt 0 4 = ":sql" then
                 run_sql (String.trim (String.sub stmt 4 (String.length stmt - 4)))
               else if String.length stmt > 8 && String.sub stmt 0 8 = ":analyze" then
                 run_explain ~analyze:true
                   (String.trim (String.sub stmt 8 (String.length stmt - 8)))
               else if String.length stmt > 8 && String.sub stmt 0 8 = ":explain" then
                 run_explain ~analyze:false
                   (String.trim (String.sub stmt 8 (String.length stmt - 8)))
               else run_query stmt
             end
           | _ -> ());
          if !continue_loop then loop ()
      in
      let outcome =
        match
          loop ();
          flush_batch ()
        with
        | () -> `Ok ()
        | exception (Xserver.Protocol.Closed | Unix.Unix_error (Unix.EPIPE, _, _)) ->
          `Error (false, "server closed the connection")
        | exception Xserver.Protocol.Proto_error m ->
          `Error (false, "protocol error: " ^ m)
      in
      Xserver.Client.Routed.close routed;
      match outcome with
      | `Ok () when !had_error && not (Unix.isatty Unix.stdin) ->
        `Error (false, "one or more statements failed")
      | o -> o
  in
  let window_arg =
    Arg.(value & opt int 1 & info [ "window" ] ~docv:"W"
           ~doc:"Pipeline plain queries W at a time (xomatiq/1 pipelining; \
                 batch scripts on stdin benefit most). 1 = one request per \
                 round-trip. Pipelined batches always go to the primary.")
  in
  let replica_arg =
    Arg.(value & opt_all hostport_conv []
         & info [ "replica" ] ~docv:"HOST:PORT"
             ~doc:"A read replica to load-balance reads across \
                   (repeatable). Writes always go to the primary, and a \
                   session's reads return there until every write it made \
                   is visible on a replica (read-your-writes via the \
                   seq= trailer).")
  in
  let doc = "Interactive remote shell against a running $(b,xomatiq serve)." in
  Cmd.v (Cmd.info "connect" ~doc)
    Term.(ret (const run $ host_arg
               $ port_arg ~default:7788 ~doc:"Server port to connect to."
               $ window_arg $ replica_arg))

let () =
  let doc = "warehouse and query biological data the XomatiQ way" in
  let info = Cmd.info "xomatiq" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ gen_cmd; harvest_cmd; sync_cmd; mirror_cmd; collections_cmd; documents_cmd;
            reconstruct_cmd; dtd_cmd; query_cmd; explain_cmd; sql_cmd; stats_cmd;
            shell_cmd; serve_cmd; connect_cmd ]))
