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

(* ---------------- prepared queries and the plan cache ----------------

   A prepared query holds everything a run needs after translation: the
   result labels, the SQL text and its physical plan. [prepare] builds
   one from an AST; [prepare_text] goes through the translated-plan
   cache, and so does the untraced relational path of [run] (keyed by
   the generated SQL, so programmatic runs of the same query skip SQL
   parse + planning exactly like textual ones). The version stamp
   (bumped by every DDL, DML and ANALYZE) makes entries
   self-invalidating: a stale entry simply fails the guard and is
   re-translated and replaced on the next lookup. *)

type prepared = {
  p_wh : Datahounds.Warehouse.t;
  p_version : int;             (* catalog version at translation time *)
  p_labels : string list;
  p_sql : string;
  p_plan : Rdb.Planner.planned option;  (* None when statically empty *)
  p_hit : bool;                (* served from the plan cache *)
}

(* The cache is process-global and the stress tests run queries from
   several domains at once, so every access goes through one mutex. *)
let cache_lock = Mutex.create ()
let plan_cache : (string * string, prepared) Hashtbl.t = Hashtbl.create 64
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

(* Whitespace-insensitive key: trim and collapse runs of blanks outside
   quoted literals. Inside '...' or "..." every byte is kept, so two
   texts that differ only in a literal never share an entry (SQL's ''
   escape closes and reopens the quote, which keeps it verbatim too). *)
let normalize_query_text text =
  let buf = Buffer.create (String.length text) in
  let pending = ref false and started = ref false in
  let quote = ref None in
  String.iter
    (fun c ->
      match !quote, c with
      | Some q, c ->
        if c = q then quote := None;
        Buffer.add_char buf c
      | None, (' ' | '\t' | '\n' | '\r') -> if !started then pending := true
      | None, c ->
        if !pending then Buffer.add_char buf ' ';
        pending := false;
        started := true;
        if c = '\'' || c = '"' then quote := Some c;
        Buffer.add_char buf c)
    text;
  Buffer.contents buf

let strategy_tag = function `Keyword_index -> "kw" | `Like_scan -> "like"

let catalog_version wh =
  Rdb.Catalog.version (Rdb.Database.catalog (Datahounds.Warehouse.db wh))

(* The one plan-cache lookup. A miss builds the entry and caches it
   before it runs: a query that then fails, times out or is canceled
   does not pay translation again. *)
let through_cache ~key wh build =
  let version = catalog_version wh in
  let hit =
    locked (fun () ->
        match Hashtbl.find_opt plan_cache key with
        | Some p when p.p_wh == wh && p.p_version = version ->
          incr cache_hits;
          Some p
        | _ ->
          incr cache_misses;
          None)
  in
  match hit with
  | Some p -> { p with p_hit = true }
  | None ->
    let p = build ~version in
    locked (fun () -> Hashtbl.replace plan_cache key p);
    p

(* SQL text -> physical plan, in two halves so a traced run can time
   the SQL-parse and plan stages apart. XQ2SQL output always parses to
   a query, so any failure here is internal or a planning error. *)
let parse_sql sql =
  try Rdb.Sql_parser.parse sql with
  | (Rdb.Sql_parser.Parse_error _ | Rdb.Sql_lexer.Lex_error _) as e ->
    error "internal: %s" (Rdb.Sql_parser.error_to_string e)

let plan_stmt wh stmt =
  let cat = Rdb.Database.catalog (Datahounds.Warehouse.db wh) in
  try
    match stmt with
    | Rdb.Sql_ast.Select_stmt sel -> Rdb.Planner.plan_select cat sel
    | Rdb.Sql_ast.Query_stmt qq -> Rdb.Planner.plan_query cat qq
    | _ -> error "internal: translation did not produce a SELECT"
  with Rdb.Planner.Plan_error m -> error "planning failed: %s" m

let prepared_of_translation ~version wh (t : Xq2sql.translation) =
  { p_wh = wh; p_version = version; p_labels = t.labels; p_sql = t.sql;
    p_plan =
      (if t.statically_empty then None
       else Some (plan_stmt wh (parse_sql t.sql)));
    p_hit = false }

let run_prepared ?cancel p =
  let rows =
    match p.p_plan with
    | None -> []
    | Some planned ->
      (try
         to_string_rows
           (snd
              (Rdb.Database.run_planned ?cancel
                 (Datahounds.Warehouse.db p.p_wh) planned))
       with Rdb.Executor.Runtime_error m ->
         error "SQL execution failed: %s\n%s" m p.p_sql)
  in
  { labels = p.p_labels; rows; sql = p.p_sql; trace = None; cached = p.p_hit }

let run_relational ?contains_strategy ?cancel ~trace ~parse_s wh (q : Ast.t) =
  let db = Datahounds.Warehouse.db wh in
  let t, xq2sql_s = timed (fun () -> translate ?contains_strategy db q) in
  if t.statically_empty then
    { labels = t.labels; rows = []; sql = t.sql;
      trace = (if trace then Some (empty_trace ~parse_s ~xq2sql_s) else None);
      cached = false }
  else if not trace then begin
    let strategy = Option.value contains_strategy ~default:`Keyword_index in
    let key = (normalize_query_text t.sql, strategy_tag strategy) in
    run_prepared ?cancel
      (through_cache ~key wh (fun ~version ->
           prepared_of_translation ~version wh t))
  end
  else begin
    (* Traced runs bypass the cache: each stage is timed and execution
       runs under an Obs profile. *)
    let stmt, sql_parse_s = timed (fun () -> parse_sql t.sql) in
    let planned, plan_s = timed (fun () -> plan_stmt wh stmt) in
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

let parse_text text =
  match Parser.parse text with
  | q -> q
  | exception (Parser.Parse_error _ as e) -> error "%s" (Parser.error_to_string e)
  | exception Ast.Invalid_query m -> error "invalid query: %s" m

let prepare ?contains_strategy wh (q : Ast.t) =
  let db = Datahounds.Warehouse.db wh in
  prepared_of_translation ~version:(catalog_version wh) wh
    (translate ?contains_strategy db q)

let prepare_text ~contains_strategy wh text =
  let key = (normalize_query_text text, strategy_tag contains_strategy) in
  through_cache ~key wh (fun ~version ->
      let db = Datahounds.Warehouse.db wh in
      prepared_of_translation ~version wh
        (translate ~contains_strategy db (parse_text text)))

let prepared_cost p =
  match p.p_plan with
  | Some planned -> planned.Rdb.Planner.est_cost
  | None -> 0.

let run_text ?(mode = `Relational) ?(contains_strategy = `Keyword_index)
    ?(trace = false) ?cancel wh text =
  match mode with
  | `Relational when not trace ->
    run_prepared ?cancel (prepare_text ~contains_strategy wh text)
  | _ ->
    let q, parse_s = timed (fun () -> parse_text text) in
    (match mode with
     | `Relational ->
       run_relational ~contains_strategy ?cancel ~trace ~parse_s wh q
     | `Reference -> run_reference ~trace ~parse_s wh q)

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
