type trace = {
  stages : (string * float) list;
  indexes : string list;
  result_rows : int;
  operator_rows : int;
  index_probes : int;
  hash_build_rows : int;
  plan : string option;
}

type result = {
  labels : string list;
  rows : string list list;
  sql : string;
  trace : trace option;
  cached : bool;
}

type mode =
  [ `Relational
  | `Reference
  ]

exception Query_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Query_error m)) fmt

let timed f =
  let t0 = Rdb.Obs.now_s () in
  let v = f () in
  (v, Rdb.Obs.now_s () -. t0)

(* Always all six stages, in pipeline order, even when a stage did not
   run (pre-parsed AST, statically-empty query, reference mode): the
   trace shape is part of the contract. *)
let stages ~parse ~xq2sql ~sql_parse ~plan ~execute ~tag =
  [ ("parse", parse); ("xq2sql", xq2sql); ("sql-parse", sql_parse);
    ("plan", plan); ("execute", execute); ("tag", tag) ]

let trace_to_string tr =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "stage timings:\n";
  List.iter
    (fun (name, s) ->
      Buffer.add_string buf (Printf.sprintf "  %-9s %8.3f ms\n" name (s *. 1000.)))
    tr.stages;
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. tr.stages in
  Buffer.add_string buf (Printf.sprintf "  %-9s %8.3f ms\n" "total" (total *. 1000.));
  Buffer.add_string buf
    (Printf.sprintf "indexes: %s\n"
       (match tr.indexes with [] -> "(none)" | l -> String.concat ", " l));
  Buffer.add_string buf
    (Printf.sprintf
       "rows: %d (operator rows=%d, index probes=%d, hash build rows=%d)\n"
       tr.result_rows tr.operator_rows tr.index_probes tr.hash_build_rows);
  Buffer.contents buf

let translate ?contains_strategy db q =
  try Xq2sql.translate ?contains_strategy db q with
  | Xq2sql.Unsupported m -> error "unsupported query: %s" m
  | Ast.Invalid_query m -> error "invalid query: %s" m

let to_string_rows rows =
  List.sort_uniq compare
    (List.map (fun row -> Array.to_list (Array.map Rdb.Value.to_string row)) rows)

let empty_trace ~parse_s ~xq2sql_s =
  { stages =
      stages ~parse:parse_s ~xq2sql:xq2sql_s ~sql_parse:0. ~plan:0. ~execute:0.
        ~tag:0.;
    indexes = []; result_rows = 0; operator_rows = 0; index_probes = 0;
    hash_build_rows = 0; plan = None }

(* ---------------- translated-plan cache ----------------

   Queries on the untraced relational path skip the whole
   parse / XQ2SQL / SQL-parse / plan pipeline when the same text was
   translated before against the same warehouse and catalog version.
   The version stamp (bumped by every DDL, DML and ANALYZE) makes
   entries self-invalidating: a stale entry simply fails the guard and
   is re-translated and replaced on the next lookup. *)

type cache_entry = {
  ce_wh : Datahounds.Warehouse.t;
  ce_version : int;             (* catalog version at translation time *)
  ce_labels : string list;
  ce_sql : string;
  ce_plan : Rdb.Planner.planned option;  (* None when statically empty *)
}

(* The cache is process-global and the stress tests run queries from
   several domains at once, so every access goes through one mutex. *)
let cache_lock = Mutex.create ()
let plan_cache : (string * string, cache_entry) Hashtbl.t = Hashtbl.create 64
let cache_hits = ref 0
let cache_misses = ref 0

let locked f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let cache_stats () = locked (fun () -> (!cache_hits, !cache_misses))

let cache_clear () =
  locked (fun () ->
      Hashtbl.reset plan_cache;
      cache_hits := 0;
      cache_misses := 0)

(* Whitespace-insensitive key: trim and collapse runs of blanks. *)
let normalize_query_text text =
  let buf = Buffer.create (String.length text) in
  let pending = ref false and started = ref false in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' -> if !started then pending := true
      | c ->
        if !pending then Buffer.add_char buf ' ';
        pending := false;
        started := true;
        Buffer.add_char buf c)
    text;
  Buffer.contents buf

let strategy_tag = function `Keyword_index -> "kw" | `Like_scan -> "like"

let catalog_version wh =
  Rdb.Catalog.version (Rdb.Database.catalog (Datahounds.Warehouse.db wh))

(* Parse and plan the translated SQL via the plan cache, keyed by the
   generated SQL text: programmatic (AST-entry) runs of the same query
   then skip SQL parse + planning exactly like textual ones. *)
let planned_of_sql ~strategy wh sql =
  let db = Datahounds.Warehouse.db wh in
  let key = (normalize_query_text sql, strategy_tag strategy) in
  let version = catalog_version wh in
  let hit =
    locked (fun () ->
        match Hashtbl.find_opt plan_cache key with
        | Some e when e.ce_wh == wh && e.ce_version = version ->
          incr cache_hits;
          Some e
        | _ ->
          incr cache_misses;
          None)
  in
  match hit with
  | Some { ce_plan = Some planned; _ } -> (planned, true)
  | _ ->
    let planned =
      match Rdb.Sql_parser.parse sql with
      | Rdb.Sql_ast.Select_stmt sel ->
        (try Rdb.Planner.plan_select (Rdb.Database.catalog db) sel
         with Rdb.Planner.Plan_error m -> error "planning failed: %s" m)
      | Rdb.Sql_ast.Query_stmt qq ->
        (try Rdb.Planner.plan_query (Rdb.Database.catalog db) qq
         with Rdb.Planner.Plan_error m -> error "planning failed: %s" m)
      | _ -> error "internal: translation did not produce a SELECT"
      | exception ((Rdb.Sql_parser.Parse_error _ | Rdb.Sql_lexer.Lex_error _) as e)
        -> error "internal: %s" (Rdb.Sql_parser.error_to_string e)
    in
    let e =
      { ce_wh = wh; ce_version = version; ce_labels = []; ce_sql = sql;
        ce_plan = Some planned }
    in
    locked (fun () -> Hashtbl.replace plan_cache key e);
    (planned, false)

let run_relational ?contains_strategy ?cancel ~trace ~parse_s wh (q : Ast.t) =
  let db = Datahounds.Warehouse.db wh in
  let t, xq2sql_s = timed (fun () -> translate ?contains_strategy db q) in
  if not trace then begin
    if t.statically_empty then
      { labels = t.labels; rows = []; sql = t.sql; trace = None;
        cached = false }
    else begin
      let strategy =
        match contains_strategy with
        | Some s -> s
        | None -> `Keyword_index
      in
      let planned, cached = planned_of_sql ~strategy wh t.sql in
      let rows =
        try snd (Rdb.Database.run_planned db ?cancel planned) with
        | Rdb.Executor.Runtime_error m ->
          error "SQL execution failed: %s\n%s" m t.sql
      in
      { labels = t.labels; rows = to_string_rows rows; sql = t.sql;
        trace = None; cached }
    end
  end
  else if t.statically_empty then
    { labels = t.labels; rows = []; sql = t.sql;
      trace = Some (empty_trace ~parse_s ~xq2sql_s); cached = false }
  else begin
    (* Decomposed pipeline: same semantics as [Database.query t.sql] but
       each stage is timed and execution runs under an Obs profile. *)
    let stmt, sql_parse_s =
      timed (fun () ->
          try Rdb.Sql_parser.parse t.sql with
          | (Rdb.Sql_parser.Parse_error _ | Rdb.Sql_lexer.Lex_error _) as e ->
            error "internal: %s" (Rdb.Sql_parser.error_to_string e))
    in
    let planned, plan_s =
      timed (fun () ->
          try
            match stmt with
            | Rdb.Sql_ast.Select_stmt sel ->
              Rdb.Planner.plan_select (Rdb.Database.catalog db) sel
            | Rdb.Sql_ast.Query_stmt qq ->
              Rdb.Planner.plan_query (Rdb.Database.catalog db) qq
            | _ -> error "internal: translation did not produce a SELECT"
          with Rdb.Planner.Plan_error m -> error "planning failed: %s" m)
    in
    let obs = Rdb.Obs.create planned.Rdb.Planner.plan in
    let rows, execute_s =
      timed (fun () ->
          try snd (Rdb.Database.run_planned db ~obs ?cancel planned) with
          | Rdb.Executor.Runtime_error m ->
            error "SQL execution failed: %s\n%s" m t.sql)
    in
    let string_rows, tag_s = timed (fun () -> to_string_rows rows) in
    let tr =
      { stages =
          stages ~parse:parse_s ~xq2sql:xq2sql_s ~sql_parse:sql_parse_s
            ~plan:plan_s ~execute:execute_s ~tag:tag_s;
        indexes = Rdb.Plan.indexes_used planned.Rdb.Planner.plan;
        result_rows = List.length string_rows;
        operator_rows = Rdb.Obs.total_rows obs;
        index_probes = Rdb.Obs.total_probes obs;
        hash_build_rows = Rdb.Obs.total_build_rows obs;
        plan = Some (Rdb.Obs.annotate obs planned.Rdb.Planner.plan) }
    in
    { labels = t.labels; rows = string_rows; sql = t.sql; trace = Some tr;
      cached = false }
  end

let run_reference ~trace ~parse_s wh (q : Ast.t) =
  let provider = Eval.of_warehouse wh in
  let rows, execute_s =
    timed (fun () ->
        try Eval.eval provider q with
        | Eval.Unknown_collection c -> error "unknown collection %S" c
        | Ast.Invalid_query m -> error "invalid query: %s" m)
  in
  let labels, tag_s =
    timed (fun () -> List.mapi Xq2sql.default_label q.Ast.return_items)
  in
  let tr =
    if not trace then None
    else
      Some
        { stages =
            stages ~parse:parse_s ~xq2sql:0. ~sql_parse:0. ~plan:0.
              ~execute:execute_s ~tag:tag_s;
          indexes = []; result_rows = List.length rows; operator_rows = 0;
          index_probes = 0; hash_build_rows = 0; plan = None }
  in
  { labels; rows; sql = "(reference evaluation)"; trace = tr; cached = false }

let run ?(mode = `Relational) ?contains_strategy ?(trace = false) wh q =
  match mode with
  | `Relational -> run_relational ?contains_strategy ~trace ~parse_s:0. wh q
  | `Reference -> run_reference ~trace ~parse_s:0. wh q

let run_cache_entry ?cancel ~cached e =
  match e.ce_plan with
  | None ->
    { labels = e.ce_labels; rows = []; sql = e.ce_sql; trace = None; cached }
  | Some planned ->
    let _, rows =
      try
        Rdb.Database.run_planned ?cancel (Datahounds.Warehouse.db e.ce_wh)
          planned
      with Rdb.Executor.Runtime_error m ->
        error "SQL execution failed: %s\n%s" m e.ce_sql
    in
    { labels = e.ce_labels; rows = to_string_rows rows; sql = e.ce_sql;
      trace = None; cached }

(* Parse, translate and plan [text] into a fresh cache entry (no cache
   interaction). Shared by the run-and-populate path and the server's
   prepare path. *)
let entry_of_text ~contains_strategy ~version wh text =
  let q =
    match Parser.parse text with
    | q -> q
    | exception (Parser.Parse_error _ as e) ->
      error "%s" (Parser.error_to_string e)
    | exception Ast.Invalid_query m -> error "invalid query: %s" m
  in
  let db = Datahounds.Warehouse.db wh in
  let t = translate ~contains_strategy db q in
  let ce_plan =
    if t.statically_empty then None
    else
      match Rdb.Sql_parser.parse t.sql with
      | Rdb.Sql_ast.Select_stmt sel ->
        (try Some (Rdb.Planner.plan_select (Rdb.Database.catalog db) sel)
         with Rdb.Planner.Plan_error m -> error "planning failed: %s" m)
      | Rdb.Sql_ast.Query_stmt qq ->
        (try Some (Rdb.Planner.plan_query (Rdb.Database.catalog db) qq)
         with Rdb.Planner.Plan_error m -> error "planning failed: %s" m)
      | _ -> error "internal: translation did not produce a SELECT"
      | exception ((Rdb.Sql_parser.Parse_error _ | Rdb.Sql_lexer.Lex_error _) as e)
        -> error "internal: %s" (Rdb.Sql_parser.error_to_string e)
  in
  { ce_wh = wh; ce_version = version; ce_labels = t.labels; ce_sql = t.sql;
    ce_plan }

let run_text_cached ?cancel ~contains_strategy wh text =
  let key = (normalize_query_text text, strategy_tag contains_strategy) in
  let version = catalog_version wh in
  let hit =
    locked (fun () ->
        match Hashtbl.find_opt plan_cache key with
        | Some e when e.ce_wh == wh && e.ce_version = version ->
          incr cache_hits;
          Some e
        | _ ->
          incr cache_misses;
          None)
  in
  match hit with
  | Some e -> run_cache_entry ?cancel ~cached:true e
  | None ->
    let e = entry_of_text ~contains_strategy ~version wh text in
    let r = run_cache_entry ?cancel ~cached:false e in
    (* only successful translations+executions are cached *)
    locked (fun () -> Hashtbl.replace plan_cache key e);
    r

let run_text ?(mode = `Relational) ?(contains_strategy = `Keyword_index)
    ?(trace = false) ?cancel wh text =
  match mode with
  | `Relational when not trace ->
    run_text_cached ?cancel ~contains_strategy wh text
  | _ ->
    let q, parse_s =
      timed (fun () ->
          match Parser.parse text with
          | q -> q
          | exception (Parser.Parse_error _ as e) ->
            error "%s" (Parser.error_to_string e)
          | exception Ast.Invalid_query m -> error "invalid query: %s" m)
    in
    (match mode with
     | `Relational ->
       run_relational ~contains_strategy ?cancel ~trace ~parse_s wh q
     | `Reference -> run_reference ~trace ~parse_s wh q)

(* ---------------- prepared queries ---------------- *)

type prepared = {
  prep_wh : Datahounds.Warehouse.t;
  prep_labels : string list;
  prep_sql : string;
  prep_plan : Rdb.Planner.planned option;  (* None when statically empty *)
}

let prepare ?contains_strategy wh (q : Ast.t) =
  let db = Datahounds.Warehouse.db wh in
  let t = translate ?contains_strategy db q in
  let prep_plan =
    if t.statically_empty then None
    else
      match Rdb.Sql_parser.parse t.sql with
      | Rdb.Sql_ast.Select_stmt sel ->
        (try Some (Rdb.Database.plan_select db sel)
         with Rdb.Planner.Plan_error m -> error "planning failed: %s" m)
      | _ -> error "internal: translation did not produce a SELECT"
      | exception e -> error "internal: %s" (Rdb.Sql_parser.error_to_string e)
  in
  { prep_wh = wh; prep_labels = t.labels; prep_sql = t.sql; prep_plan }

let run_prepared p =
  match p.prep_plan with
  | None ->
    { labels = p.prep_labels; rows = []; sql = p.prep_sql; trace = None;
      cached = false }
  | Some planned ->
    let _, rows = Rdb.Database.run_planned (Datahounds.Warehouse.db p.prep_wh) planned in
    { labels = p.prep_labels;
      rows = to_string_rows rows;
      sql = p.prep_sql;
      trace = None;
      cached = false }

(* ---------------- server-side text preparation ----------------

   The query server plans on the session thread — one plan-cache lookup
   on the hot path — reads the root cost estimate off the plan to pick a
   scheduling lane (inline vs. pool dispatch), and only then runs the
   query. Unlike [run_text_cached], preparation populates the cache
   before execution: a query that later times out or is canceled should
   not pay translation again. *)

type prepared_text = {
  pt_entry : cache_entry;
  pt_tag : string;   (* strategy_tag at preparation time *)
  pt_hit : bool;     (* served from the plan cache *)
}

let prepare_text ~contains_strategy wh text =
  let tag = strategy_tag contains_strategy in
  let key = (normalize_query_text text, tag) in
  let version = catalog_version wh in
  let hit =
    locked (fun () ->
        match Hashtbl.find_opt plan_cache key with
        | Some e when e.ce_wh == wh && e.ce_version = version ->
          incr cache_hits;
          Some e
        | _ ->
          incr cache_misses;
          None)
  in
  match hit with
  | Some e -> { pt_entry = e; pt_tag = tag; pt_hit = true }
  | None ->
    let e = entry_of_text ~contains_strategy ~version wh text in
    locked (fun () -> Hashtbl.replace plan_cache key e);
    { pt_entry = e; pt_tag = tag; pt_hit = false }

let prepared_hit pt = pt.pt_hit

let prepared_cost pt =
  match pt.pt_entry.ce_plan with
  | Some planned -> planned.Rdb.Planner.est_cost
  | None -> 0.

(* A memoized preparation stays valid while the warehouse, its catalog
   version and the contains strategy (the tag) are unchanged. *)
let prepared_valid ~contains_strategy wh pt =
  pt.pt_entry.ce_wh == wh
  && pt.pt_entry.ce_version = catalog_version wh
  && pt.pt_tag = strategy_tag contains_strategy

let run_prepared_text ?cancel ~cached pt =
  run_cache_entry ?cancel ~cached pt.pt_entry

let explain wh q =
  let db = Datahounds.Warehouse.db wh in
  match Xq2sql.translate db q with
  | t ->
    (match Rdb.Database.explain db t.sql with
     | Ok plan -> Printf.sprintf "SQL:\n%s\n\nPlan:\n%s" t.sql plan
     | Error m -> error "planning failed: %s\n%s" m t.sql)
  | exception Xq2sql.Unsupported m -> error "unsupported query: %s" m

let explain_analyze wh q =
  let db = Datahounds.Warehouse.db wh in
  match Xq2sql.translate db q with
  | t ->
    (match Rdb.Database.explain_analyze db t.sql with
     | Ok plan -> Printf.sprintf "SQL:\n%s\n\nPlan:\n%s" t.sql plan
     | Error m -> error "execution failed: %s\n%s" m t.sql)
  | exception Xq2sql.Unsupported m -> error "unsupported query: %s" m

(* Surface the translated-plan cache in metric snapshots (METRICS wire
   request, --metrics-json) alongside the server's own counters. *)
let () =
  Rdb.Obs.register_gauge "engine.plan_cache.hits" (fun () ->
      fst (cache_stats ()));
  Rdb.Obs.register_gauge "engine.plan_cache.misses" (fun () ->
      snd (cache_stats ()))

let result_to_xml r = Tagger.to_xml ~labels:r.labels r.rows

let result_to_table r = Tagger.to_table ~labels:r.labels r.rows
