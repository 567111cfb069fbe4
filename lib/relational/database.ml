type undo =
  | Undo_insert of { table : Table.t; rowid : int }
  | Undo_delete of { table : Table.t; rowid : int; row : Value.t array }
  | Undo_update of { table : Table.t; rowid : int; old_row : Value.t array }
  | Undo_bulk of { table : Table.t; first : int; count : int }
      (* one bulk load: rowids [first, first+count) tombstone on abort *)

type txn = {
  txn_id : int;
  mutable undo_ops : undo list;  (* most recent first *)
  mutable touched : Table.t list;  (* tables with MVCC stashes to seal *)
  mutable t_snap : Table.snap option;
      (* snapshot pinned at the transaction's first read: repeatable
         reads, and the baseline for first-updater-wins conflicts *)
}

type t = {
  db_id : int;  (* process-unique instance serial, see {!id} *)
  cat : Catalog.t;
  mutable wal : Wal.t option;
  locks : Lock_manager.t;
  mutable next_txid : int;
  mutable replaying : bool;
  mutable default_session : session option;  (* lazily created *)
  storage : Storage.t option;  (* disk backend; None = in-memory rows *)
  mutable attaching : bool;
      (* replaying the manifest's final-state DDL against existing page
         files: CREATE INDEX attaches instead of building *)
  mutable temp_storage : bool;  (* data dir is ours to delete at close *)
  mutable analyzed : string list;  (* tables with stats, for the manifest *)
  (* MVCC commit clock. Process-local (starts at 0 every open, never
     persisted): snapshots only ever compare against commits of the same
     process, and cross-node positions use WAL record positions instead.
     [reg_mutex] orders snapshot registration against commit sealing and
     guards the registry + clock; lock order is reg_mutex before any
     table's version mutex, never the reverse. *)
  mutable csn : int;
  reg_mutex : Mutex.t;
  mutable active_snaps : int list;  (* CSNs of in-flight snapshots *)
  mutable versioned : Table.t list;  (* tables holding sealed history *)
}

(* A session is one client connection: it owns at most one open
   transaction. The historical single-connection API on [t] routes
   through a default session; tests open extra sessions to script
   concurrent schedules against the lock manager. *)
and session = { sdb : t; mutable s_txn : txn option }

type result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int
  | Explained of string
  | Done of string

exception Db_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Db_error m)) fmt

let catalog t = t.cat

let next_db_id = Atomic.make 0

let id t = t.db_id

let session t = { sdb = t; s_txn = None }

let default t =
  match t.default_session with
  | Some s -> s
  | None ->
    let s = session t in
    t.default_session <- Some s;
    s

let in_transaction t = (default t).s_txn <> None

let log t op =
  if not t.replaying then
    match t.wal with
    | Some wal -> Wal.append wal op
    | None -> ()

let log_flush t =
  if not t.replaying then Option.iter Wal.flush t.wal

(* ---------------- MVCC snapshots ---------------- *)

exception Mvcc_conflict of string

(* Open a snapshot at the current clock. Registered under [reg_mutex] so
   no commit can seal "between" reading the clock and registering — a
   sealed version either predates the snapshot (invisible) or was sealed
   at a CSN the snapshot will correctly skip. *)
let snap_register t ~self =
  Mutex.lock t.reg_mutex;
  let at = t.csn in
  t.active_snaps <- at :: t.active_snaps;
  Mutex.unlock t.reg_mutex;
  { Table.at; self }

(* Close a snapshot and reclaim version history nothing can reach. *)
let snap_release t (snap : Table.snap) =
  Mutex.lock t.reg_mutex;
  let rec drop_one = function
    | [] -> []
    | x :: rest -> if x = snap.at then rest else x :: drop_one rest
  in
  t.active_snaps <- drop_one t.active_snaps;
  let min_active =
    match t.active_snaps with
    | [] -> None
    | l -> Some (List.fold_left min max_int l)
  in
  t.versioned <-
    List.filter (fun tbl -> Table.gc_versions tbl ~min_active > 0) t.versioned;
  Mutex.unlock t.reg_mutex

(* Commit [txid]'s stashes and advance the clock. Sealing happens before
   the new CSN is published, so no snapshot can be positioned after a
   commit whose versions it cannot see. With no snapshot in flight the
   pre-images go straight to the floor. *)
let advance_clock t ~txid ~touched =
  Mutex.lock t.reg_mutex;
  let c = t.csn + 1 in
  let keep = t.active_snaps <> [] in
  List.iter
    (fun tbl ->
      if keep then begin
        Table.seal_versions tbl ~txid ~csn:c;
        if not (List.memq tbl t.versioned) then
          t.versioned <- tbl :: t.versioned
      end
      else Table.discard_versions tbl ~txid)
    touched;
  t.csn <- c;
  Mutex.unlock t.reg_mutex

let touch txn tbl =
  if not (List.memq tbl txn.touched) then txn.touched <- tbl :: txn.touched

(* Pre-image stash before a row mutation. When the transaction pinned a
   snapshot (it read before writing), a row committed over since then is
   a lost-update hazard: first-updater-wins, the statement aborts the
   whole transaction. *)
let stash_write t txn tbl rowid =
  if not t.replaying then begin
    touch txn tbl;
    let since = Option.map (fun (v : Table.snap) -> v.at) txn.t_snap in
    if not (Table.stash_row tbl ~txid:txn.txn_id ?since rowid) then
      raise
        (Mvcc_conflict
           (Printf.sprintf
              "serialization failure: concurrent update to table %S, \
               transaction rolled back"
              (Table.schema tbl).Schema.table_name))
  end

let stash_append t txn tbl =
  if not t.replaying then begin
    touch txn tbl;
    Table.stash_len tbl ~txid:txn.txn_id
  end

(* Obtain the transaction to charge an operation to: the session's open
   one, or a fresh single-statement transaction (auto-commit). Returns
   the txn and whether it must be committed at statement end. *)
let charge s =
  let t = s.sdb in
  match s.s_txn with
  | Some txn -> (txn, false)
  | None ->
    let txn =
      { txn_id = t.next_txid; undo_ops = []; touched = []; t_snap = None }
    in
    t.next_txid <- t.next_txid + 1;
    log t (Wal.Begin txn.txn_id);
    (txn, true)

let commit_txn t txn =
  log t (Wal.Commit txn.txn_id);
  log_flush t;
  (* the pinned snapshot dies with its transaction; then seal the
     pre-image stashes at the next CSN *)
  Option.iter
    (fun v ->
      snap_release t v;
      txn.t_snap <- None)
    txn.t_snap;
  advance_clock t ~txid:txn.txn_id ~touched:txn.touched;
  (* strict 2PL: locks are held to commit *)
  Lock_manager.release_all t.locks ~owner:txn.txn_id

let rollback_txn _t txn =
  List.iter
    (fun u ->
      match u with
      | Undo_insert { table; rowid } -> ignore (Table.delete table rowid)
      | Undo_delete { table; rowid; row } -> begin
          (* restore the tombstoned slot *)
          match Table.update table rowid row with
          | Ok () -> ()
          | Error _ ->
            (* the slot is a tombstone: Table.update refuses; re-apply by
               direct undelete below *)
            ignore (Table.undelete table rowid row)
        end
      | Undo_update { table; rowid; old_row } ->
        (match Table.update table rowid old_row with
         | Ok () -> ()
         | Error m -> failwith ("rollback failed: " ^ m))
      | Undo_bulk { table; first; count } ->
        (* tombstone the appended range in one batch; removing a
           never-built index entry is a no-op, so partially-built
           indexes roll back consistently *)
        ignore (Table.delete_many table (List.init count (fun i -> first + i))))
    txn.undo_ops

let abort t txn =
  (* raw undo first: a pending pre-image keeps concurrent snapshot
     readers consistent through the window where the store still shows
     the aborted writes; only then are those stashes discarded *)
  rollback_txn t txn;
  List.iter (fun tbl -> Table.discard_versions tbl ~txid:txn.txn_id) txn.touched;
  Option.iter
    (fun v ->
      snap_release t v;
      txn.t_snap <- None)
    txn.t_snap;
  log t (Wal.Rollback txn.txn_id);
  (* flushed like a commit: the replication sender reads the file, and an
     unflushed rollback would leave the on-disk log permanently short of
     [wal_position] — no replica could ever catch up past it *)
  log_flush t;
  Lock_manager.release_all t.locks ~owner:txn.txn_id

(* ---------------- locking ---------------- *)

(* Table-lock acquisition for a statement. [Would_block] fails just the
   statement (the transaction keeps its locks and stays queued, so a
   retry after the conflicting commit succeeds). [Deadlock] picks the
   requester as victim: the whole transaction rolls back. *)
let lock_table s txn mode table =
  let t = s.sdb in
  if not t.replaying then
    match
      Lock_manager.acquire t.locks ~owner:txn.txn_id
        ~table:(Catalog.normalize table) mode
    with
    | Lock_manager.Granted -> ()
    | Lock_manager.Would_block ->
      error "table %S is locked by a concurrent transaction" table
    | Lock_manager.Deadlock ->
      abort t txn;
      s.s_txn <- None;
      error "deadlock detected: transaction %d rolled back" txn.txn_id

(* ---------------- statement execution ---------------- *)

let find_table t name =
  match Catalog.find_table t.cat name with
  | Some tbl -> tbl
  | None -> error "no such table %S" name

let eval_const t e =
  let c = Planner.compile_scalar t.cat e in
  Executor.eval_expr t.cat [||] c

let do_insert t txn ~table ~columns ~rows =
  let tbl = find_table t table in
  let schema = Table.schema tbl in
  let arity = Schema.arity schema in
  let positions =
    match columns with
    | None -> List.init arity (fun i -> i)
    | Some cols ->
      List.map
        (fun c ->
          match Schema.column_index_opt schema c with
          | Some i -> i
          | None -> error "no column %S in table %S" c table)
        cols
  in
  let count = ref 0 in
  stash_append t txn tbl;
  List.iter
    (fun value_exprs ->
      if List.length value_exprs <> List.length positions then
        error "INSERT arity mismatch for table %S" table;
      let row = Array.make arity Value.Null in
      List.iteri
        (fun i e -> row.(List.nth positions i) <- eval_const t e)
        value_exprs;
      match Table.insert tbl row with
      | Ok rowid ->
        txn.undo_ops <- Undo_insert { table = tbl; rowid } :: txn.undo_ops;
        log t
          (Wal.Insert
             { txid = txn.txn_id; table = Catalog.normalize table; row; rowid });
        incr count
      | Error m -> error "%s" m)
    rows;
  !count

(* UPDATE/DELETE row selection. When the WHERE clause has equality
   conjuncts covering all columns of some index, probe it instead of
   scanning the heap. *)
let matching_rowids t tbl where =
  let schema = Table.schema tbl in
  let pred =
    Option.map (fun e -> Planner.compile_row_predicate t.cat schema e) where
  in
  let keep (rowid, row) =
    match pred with
    | None -> Some (rowid, row)
    | Some p ->
      if Value.is_truthy (Executor.eval_expr t.cat row p) then Some (rowid, row)
      else None
  in
  let eq_literals =
    let rec conjuncts = function
      | Sql_ast.Binop (Sql_ast.And, a, b) -> conjuncts a @ conjuncts b
      | e -> [ e ]
    in
    match where with
    | None -> []
    | Some e ->
      List.filter_map
        (function
          | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Col { column; _ }, Sql_ast.Lit v)
          | Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Lit v, Sql_ast.Col { column; _ }) ->
            Some (String.lowercase_ascii column, v)
          | _ -> None)
        (conjuncts e)
  in
  let probe =
    List.find_map
      (fun idx ->
        let cols = List.map String.lowercase_ascii (Index.columns idx) in
        let rec key acc = function
          | [] -> Some (Array.of_list (List.rev acc))
          | c :: rest ->
            (match List.assoc_opt c eq_literals with
             | Some v -> key (v :: acc) rest
             | None -> None)
        in
        Option.map (fun k -> (idx, k)) (key [] cols))
      (Table.indexes tbl)
  in
  match probe with
  | Some (idx, key) ->
    List.filter_map
      (fun rowid ->
        match Table.get tbl rowid with
        | Some row -> keep (rowid, row)
        | None -> None)
      (Index.lookup idx key)
  | None -> List.of_seq (Seq.filter_map keep (Table.scan tbl))

let do_delete t txn ~table ~where =
  let tbl = find_table t table in
  let victims = matching_rowids t tbl where in
  (* every pre-image is stashed before the first row goes; then one
     batched delete, so each index sweeps each key's postings once per
     statement rather than once per victim *)
  List.iter (fun (rowid, _) -> stash_write t txn tbl rowid) victims;
  List.iter
    (fun (rowid, row) ->
      txn.undo_ops <- Undo_delete { table = tbl; rowid; row } :: txn.undo_ops;
      log t (Wal.Delete { txid = txn.txn_id; table = Catalog.normalize table; rowid }))
    (Table.delete_many tbl (List.map fst victims));
  List.length victims

let do_update t txn ~table ~assignments ~where =
  let tbl = find_table t table in
  let schema = Table.schema tbl in
  let compiled =
    List.map
      (fun (col, e) ->
        match Schema.column_index_opt schema col with
        | Some i -> (i, Planner.compile_row_predicate t.cat schema e)
        | None -> error "no column %S in table %S" col table)
      assignments
  in
  let victims = matching_rowids t tbl where in
  List.iter
    (fun (rowid, old_row) ->
      stash_write t txn tbl rowid;
      let new_row = Array.copy old_row in
      List.iter
        (fun (i, ce) -> new_row.(i) <- Executor.eval_expr t.cat old_row ce)
        compiled;
      match Table.update tbl rowid new_row with
      | Ok () ->
        txn.undo_ops <- Undo_update { table = tbl; rowid; old_row } :: txn.undo_ops;
        log t
          (Wal.Update { txid = txn.txn_id; table = Catalog.normalize table; rowid;
                        row = new_row })
      | Error m -> error "%s" m)
    victims;
  List.length victims

let do_create_table t ~ddl_sql (ct : Sql_ast.stmt) =
  match ct with
  | Sql_ast.Create_table { name; if_not_exists; columns; primary_key } ->
    if Catalog.find_table t.cat name <> None then begin
      if if_not_exists then Done "table exists, skipped"
      else error "table %S already exists" name
    end
    else begin
      let inline_pk =
        List.filter_map
          (fun (c : Sql_ast.column_def) ->
            if c.cd_primary_key then Some c.cd_name else None)
          columns
      in
      let pk =
        match primary_key, inline_pk with
        | [], pk -> pk
        | pk, [] -> pk
        | _ -> error "duplicate PRIMARY KEY specification"
      in
      let schema =
        Schema.make ~primary_key:pk (Catalog.normalize name)
          (List.map
             (fun (c : Sql_ast.column_def) ->
               (c.cd_name, c.cd_type, not c.cd_not_null))
             columns)
      in
      (match Catalog.add_table t.cat (Table.create ?storage:t.storage schema) with
       | Ok () ->
         Catalog.bump_version t.cat;
         log t (Wal.Ddl ddl_sql);
         log_flush t;
         Done (Printf.sprintf "table %s created" name)
       | Error m -> error "%s" m)
    end
  | _ -> assert false

let do_create_index t ~ddl_sql ~name ~table ~columns ~unique ~kind =
  let tbl = find_table t table in
  let schema = Table.schema tbl in
  let positions =
    List.map
      (fun c ->
        match Schema.column_index_opt schema c with
        | Some i -> i
        | None -> error "no column %S in table %S" c table)
      columns
  in
  let ikind =
    match kind with
    | Sql_ast.Hash_index -> Index.Hash
    | Sql_ast.Btree_index -> Index.Btree
  in
  let idx =
    Index.create ?storage:t.storage ~name:(Catalog.normalize name)
      ~table:(Catalog.normalize table)
      ~columns:(List.map String.lowercase_ascii columns)
      ~column_positions:positions ~unique ikind
  in
  (* WAL replay over surviving page files (recovery past a truncated
     prefix): a torn post-checkpoint build may have flushed partial index
     pages — the build below must start from empty *)
  if t.replaying && not t.attaching then Index.clear idx;
  match Catalog.add_index ~attach:t.attaching t.cat ~table idx with
  | Ok () ->
    Catalog.bump_version t.cat;
    log t (Wal.Ddl ddl_sql);
    log_flush t;
    Done (Printf.sprintf "index %s created" name)
  | Error m -> error "%s" m

let do_analyze t (stmt : Sql_ast.stmt) target =
  let tables =
    match target with
    | Some name -> [ (Catalog.normalize name, find_table t name) ]
    | None ->
      List.filter_map
        (fun n -> Option.map (fun tbl -> (n, tbl)) (Catalog.find_table t.cat n))
        (Catalog.table_names t.cat)
  in
  List.iter
    (fun (n, tbl) ->
      Catalog.set_stats t.cat n (Stats.analyze tbl);
      if not (List.mem n t.analyzed) then t.analyzed <- t.analyzed @ [ n ])
    tables;
  Catalog.bump_version t.cat;
  (* logged like DDL: replay recomputes statistics from the recovered data *)
  log t (Wal.Ddl (Sql_ast.stmt_to_string stmt));
  log_flush t;
  Done
    (Printf.sprintf "analyzed %d table%s" (List.length tables)
       (if List.length tables = 1 then "" else "s"))

(* EXPLAIN footer surfacing the scheduler's plan-time decision: whether
   a server would run this query inline or dispatch it off the reactor
   thread, and the cost estimate that decided it. *)
let sched_footer (planned : Planner.planned) =
  Printf.sprintf "Scheduler: lane=%s est_cost=%.1f\n"
    (Conc.Sched.lane_name (Conc.Sched.lane ~est_cost:planned.est_cost))
    planned.est_cost

let rec execute_in (s : session) (stmt : Sql_ast.stmt) : result =
  let t = s.sdb in
  match stmt with
  | Select_stmt _ | Query_stmt _ ->
    let planned =
      match stmt with
      | Select_stmt sel -> Planner.plan_select t.cat sel
      | Query_stmt q -> Planner.plan_query t.cat q
      | _ -> assert false
    in
    (* MVCC: reads take no table locks — they run against a registered
       snapshot, neither blocking writers nor waiting for them. A
       standalone statement reads at the current CSN; a transaction pins
       its snapshot at first read (repeatable reads, own writes
       visible). *)
    (match s.s_txn with
     | Some txn ->
       let view =
         match txn.t_snap with
         | Some v -> v
         | None ->
           let v = snap_register t ~self:txn.txn_id in
           txn.t_snap <- Some v;
           v
       in
       let rows = List.of_seq (Executor.run t.cat ~view planned.plan) in
       Rows { columns = planned.column_names; rows }
     | None ->
       let view = snap_register t ~self:(-1) in
       Fun.protect ~finally:(fun () -> snap_release t view) @@ fun () ->
       let rows = List.of_seq (Executor.run t.cat ~view planned.plan) in
       Rows { columns = planned.column_names; rows })
  | Insert { table; columns; rows } ->
    let txn, auto = charge s in
    (try
       lock_table s txn Lock_manager.Exclusive table;
       let n = do_insert t txn ~table ~columns ~rows in
       Catalog.bump_version t.cat;
       if auto then commit_txn t txn;
       Affected n
     with e ->
       if auto then abort t txn;
       raise e)
  | Delete { table; where } ->
    let txn, auto = charge s in
    (try
       lock_table s txn Lock_manager.Exclusive table;
       let n = do_delete t txn ~table ~where in
       Catalog.bump_version t.cat;
       if auto then commit_txn t txn;
       Affected n
     with
     | Mvcc_conflict m ->
       abort t txn;
       s.s_txn <- None;
       error "%s" m
     | e ->
       if auto then abort t txn;
       raise e)
  | Update { table; assignments; where } ->
    let txn, auto = charge s in
    (try
       lock_table s txn Lock_manager.Exclusive table;
       let n = do_update t txn ~table ~assignments ~where in
       Catalog.bump_version t.cat;
       if auto then commit_txn t txn;
       Affected n
     with
     | Mvcc_conflict m ->
       abort t txn;
       s.s_txn <- None;
       error "%s" m
     | e ->
       if auto then abort t txn;
       raise e)
  | Create_table _ as ct ->
    if s.s_txn <> None then error "DDL inside a transaction is not supported";
    do_create_table t ~ddl_sql:(Sql_ast.stmt_to_string ct) ct
  | Create_index { name; table; columns; unique; kind } as ci ->
    if s.s_txn <> None then error "DDL inside a transaction is not supported";
    do_create_index t ~ddl_sql:(Sql_ast.stmt_to_string ci) ~name ~table ~columns
      ~unique ~kind
  | Drop_table { name; if_exists } as dt ->
    if s.s_txn <> None then error "DDL inside a transaction is not supported";
    let victim = Catalog.find_table t.cat name in
    if Catalog.drop_table t.cat name then begin
      Option.iter Table.destroy victim;  (* unlink page files (disk mode) *)
      t.analyzed <-
        List.filter (fun n -> n <> Catalog.normalize name) t.analyzed;
      Catalog.bump_version t.cat;
      log t (Wal.Ddl (Sql_ast.stmt_to_string dt));
      log_flush t;
      Done (Printf.sprintf "table %s dropped" name)
    end
    else if if_exists then Done "no such table, skipped"
    else error "no such table %S" name
  | Drop_index { name; if_exists } as di ->
    if s.s_txn <> None then error "DDL inside a transaction is not supported";
    let victim = Option.map snd (Catalog.find_index t.cat name) in
    if Catalog.drop_index t.cat name then begin
      Option.iter Index.destroy victim;
      Catalog.bump_version t.cat;
      log t (Wal.Ddl (Sql_ast.stmt_to_string di));
      log_flush t;
      Done (Printf.sprintf "index %s dropped" name)
    end
    else if if_exists then Done "no such index, skipped"
    else error "no such index %S" name
  | Analyze target ->
    if s.s_txn <> None then error "ANALYZE inside a transaction is not supported";
    do_analyze t stmt target
  | Begin_txn ->
    if s.s_txn <> None then error "already in a transaction";
    let txn =
      { txn_id = t.next_txid; undo_ops = []; touched = []; t_snap = None }
    in
    t.next_txid <- t.next_txid + 1;
    log t (Wal.Begin txn.txn_id);
    s.s_txn <- Some txn;
    Done "transaction started"
  | Commit_txn ->
    (match s.s_txn with
     | None -> error "no transaction in progress"
     | Some txn ->
       commit_txn t txn;
       s.s_txn <- None;
       Done "committed")
  | Rollback_txn ->
    (match s.s_txn with
     | None -> error "no transaction in progress"
     | Some txn ->
       abort t txn;
       s.s_txn <- None;
       Done "rolled back")
  | Explain inner ->
    (* EXPLAIN shows the plan the executor will actually run: the
       rewritten plan, with fired rewrite rules per node ([fused=…]) and
       summarised in a footer. *)
    let explained (planned : Planner.planned) =
      let ests = Cost.estimate t.cat planned.plan in
      let annot node = Cost.annotation ests node ^ Rewrite.node_tag node in
      Explained
        (Plan.to_string ~annot planned.plan
         ^ Rewrite.footer planned.rewrites
         ^ sched_footer planned)
    in
    (match inner with
     | Select_stmt sel -> explained (Planner.plan_select t.cat sel)
     | Query_stmt q -> explained (Planner.plan_query t.cat q)
     | _ -> Explained (Sql_ast.stmt_to_string inner ^ "\n"))
  | Explain_analyze inner ->
    let planned =
      match inner with
      | Select_stmt sel -> Planner.plan_select t.cat sel
      | Query_stmt q -> Planner.plan_query t.cat q
      | _ -> error "EXPLAIN ANALYZE supports only SELECT statements"
    in
    let ests = Cost.estimate t.cat planned.plan in
    let obs = Obs.create planned.plan in
    let pool0 =
      (Bufpool.pool_hits (), Bufpool.pool_misses (), Bufpool.pool_evictions (),
       Bufpool.pool_writebacks ())
    in
    let t0 = Obs.now_s () in
    let view =
      snap_register t
        ~self:(match s.s_txn with Some txn -> txn.txn_id | None -> -1)
    in
    let rows =
      Fun.protect ~finally:(fun () -> snap_release t view) @@ fun () ->
      List.of_seq (Executor.run t.cat ~obs ~view planned.plan)
    in
    let elapsed_ms = (Obs.now_s () -. t0) *. 1000. in
    (* estimate-vs-actual, side by side on every node *)
    let annot node =
      Cost.annotation ests node ^ Obs.annotation obs node
      ^ Rewrite.node_tag node
    in
    (* buffer-pool traffic of this query; only printed in disk mode so
       in-memory EXPLAIN ANALYZE output is unchanged *)
    let storage_line =
      match t.storage with
      | None -> ""
      | Some _ ->
        let h0, m0, e0, w0 = pool0 in
        Printf.sprintf
          "Storage: pool hits=%d misses=%d evictions=%d writebacks=%d\n"
          (Bufpool.pool_hits () - h0) (Bufpool.pool_misses () - m0)
          (Bufpool.pool_evictions () - e0) (Bufpool.pool_writebacks () - w0)
    in
    Explained
      (Plan.to_string ~annot planned.plan
       ^ Rewrite.footer planned.rewrites
       ^ sched_footer planned
       ^ storage_line
       ^ Printf.sprintf
           "Result: %d rows in %.3fms (operator rows=%d, index probes=%d, \
            hash build rows=%d)\n"
           (List.length rows) elapsed_ms (Obs.total_rows obs)
           (Obs.total_probes obs) (Obs.total_build_rows obs))

and execute t stmt = execute_in (default t) stmt

(* ---------------- recovery ---------------- *)

and replay t ops =
  t.replaying <- true;
  Fun.protect ~finally:(fun () -> t.replaying <- false) @@ fun () ->
  List.iter
    (fun (op : Wal.op) ->
      match op with
      | Wal.Ddl sql ->
        (match Sql_parser.parse sql with
         | stmt -> ignore (execute t stmt)
         | exception e -> failwith ("recovery: bad DDL in WAL: " ^ Printexc.to_string e))
      | Wal.Insert { table; row; rowid; _ } ->
        (* idempotent: the record names its rowid, and rowids are
           sequential appends never reused — the table having grown past
           [rowid] means this record is already applied (suffix replay
           over checkpointed pages, or a re-shipped stream) *)
        let tbl = find_table t table in
        if Table.next_rowid tbl <= rowid then (
          match Table.insert tbl row with
          | Ok r ->
            if r <> rowid then
              failwith
                (Printf.sprintf
                   "recovery: %s replayed rowid %d where WAL says %d" table r
                   rowid)
          | Error m -> failwith ("recovery: " ^ m))
      | Wal.Delete { table; rowid; _ } ->
        let tbl = find_table t table in
        ignore (Table.delete tbl rowid)
      | Wal.Update { table; rowid; row; _ } ->
        let tbl = find_table t table in
        (match Table.update tbl rowid row with
         | Ok () -> ()
         | Error m -> failwith ("recovery: " ^ m))
      | Wal.Load { table; spool; rows; first; _ } ->
        (* a committed bulk load: stream the spooled rows back in. The
           row-by-row path (index maintenance included) is fine here —
           recovery is not the hot path the spool optimised. Idempotent
           like Insert: rows below the table's high-water mark are
           already applied, so replay resumes mid-spool. *)
        let tbl = find_table t table in
        let have = max 0 (min rows (Table.next_rowid tbl - first)) in
        if have < rows then begin
          if not (Sys.file_exists spool) then
            failwith
              (Printf.sprintf "recovery: bulk-load spool %s is missing" spool);
          let n = ref 0 in
          Storage.spool_iter spool (fun row ->
              if !n >= have then begin
                match Table.insert tbl row with
                | Ok _ -> ()
                | Error m -> failwith ("recovery: " ^ m)
              end;
              incr n);
          if !n <> rows then
            failwith
              (Printf.sprintf "recovery: spool %s holds %d rows, WAL says %d"
                 spool !n rows)
        end
      | Wal.Begin txid | Wal.Commit txid | Wal.Rollback txid ->
        if txid >= t.next_txid then t.next_txid <- txid + 1)
    ops

let mk_db ?storage () =
  { db_id = Atomic.fetch_and_add next_db_id 1;
    cat = Catalog.create (); wal = None; locks = Lock_manager.create ();
    next_txid = 1; replaying = false; default_session = None;
    storage; attaching = false; temp_storage = false; analyzed = [];
    csn = 0; reg_mutex = Mutex.create (); active_snaps = []; versioned = [] }

(* Advance past every txid in the log, including uncommitted (torn)
   transactions: reusing such an id would let a later commit record
   retroactively seal the torn operations on the next recovery. *)
let advance_txids t ops =
  List.iter
    (fun (op : Wal.op) ->
      match op with
      | Wal.Begin txid | Wal.Commit txid | Wal.Rollback txid
      | Wal.Insert { txid; _ } | Wal.Delete { txid; _ }
      | Wal.Update { txid; _ } | Wal.Load { txid; _ } ->
        if txid >= t.next_txid then t.next_txid <- txid + 1
      | Wal.Ddl _ -> ())
    ops

(* Rebuild every index from its table's heap. Recovery over a truncated
   WAL cannot trust post-checkpoint index pages (a crash may have
   flushed them torn or half-built); the heap — checkpointed prefix
   plus idempotent suffix replay — is the authority. *)
let rebuild_indexes t =
  List.iter
    (fun n ->
      match Catalog.find_table t.cat n with
      | None -> ()
      | Some tbl ->
        let idxs = Table.indexes tbl in
        List.iter Index.clear idxs;
        Seq.iter
          (fun (rowid, row) ->
            List.iter
              (fun idx ->
                match Index.insert idx row rowid with
                | Ok () -> ()
                | Error m -> failwith ("recovery: index rebuild: " ^ m))
              idxs)
          (Table.scan tbl))
    (Catalog.table_names t.cat)

let clear_indexes t =
  List.iter
    (fun n ->
      match Catalog.find_table t.cat n with
      | None -> ()
      | Some tbl -> List.iter Index.clear (Table.indexes tbl))
    (Catalog.table_names t.cat)

(* XOMATIQ_STORAGE=disk flips the default open paths onto the paged
   backend without touching call sites. *)
let env_disk () =
  match Sys.getenv_opt "XOMATIQ_STORAGE" with
  | Some s -> String.lowercase_ascii (String.trim s) = "disk"
  | None -> false

let temp_dir_serial = Atomic.make 0

let fresh_temp_dir () =
  let rec pick () =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "xomatiq-db-%d-%d" (Unix.getpid ())
           (Atomic.fetch_and_add temp_dir_serial 1))
    in
    if Sys.file_exists d then pick () else d
  in
  let d = pick () in
  Unix.mkdir d 0o755;
  d

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    (try Unix.rmdir p with Unix.Unix_error _ -> ())
  end
  else try Sys.remove p with Sys_error _ -> ()

(* Open a disk-backed database. The manifest decides between the two
   recovery paths (see {!Storage}): when it is present and pins exactly
   the WAL's current record count, the page files reflect a clean
   shutdown and we attach by executing the manifest's final-state DDL
   (tables and indexes open their existing files, no rebuild; statistics
   are recomputed for the tables analyzed at shutdown). Anything else —
   no manifest (crash), count mismatch (torn checkpoint) — wipes the
   page directory and rebuilds from the committed WAL. The manifest is
   deleted before either path so a crash mid-open cannot be mistaken for
   a clean shutdown. *)
let open_disk_at ~dir ~wal_path ~temp =
  let st = Storage.create ~dir () in
  let t = mk_db ~storage:st () in
  t.temp_storage <- temp;
  let manifest = Storage.read_manifest st in
  Storage.drop_manifest st;
  Option.iter Wal.trim_torn_tail wal_path;
  let wal_lines = match wal_path with Some p -> Wal.line_count p | None -> 0 in
  let wal_base = match wal_path with Some p -> Wal.read_base p | None -> 0 in
  let all_ops = match wal_path with Some p -> Wal.read_ops p | None -> [] in
  let attach_ddls ddls =
    t.attaching <- true;
    Fun.protect ~finally:(fun () -> t.attaching <- false) @@ fun () ->
    List.iter
      (fun ddl ->
        match Sql_parser.parse ddl with
        | stmt -> ignore (execute t stmt)
        | exception e ->
          failwith ("attach: bad DDL in manifest: " ^ Printexc.to_string e))
      ddls
  in
  (* statistics are not persisted; recompute them (sampled) *)
  let reanalyze names =
    List.iter (fun tbl -> ignore (execute t (Sql_ast.Analyze (Some tbl)))) names
  in
  (match manifest with
   | Some m when m.wal_lines = wal_lines ->
     attach_ddls m.ddls;
     reanalyze m.analyzed
   | Some m when wal_base > 0 && m.wal_lines >= wal_base
              && m.wal_lines <= wal_lines ->
     (* torn checkpoint over a truncated log. The dropped prefix is
        durable in the checkpointed pages (truncation never passes the
        manifest it was taken under — see [checkpoint]): attach the
        manifest's final state and replay the committed suffix past it.
        The replayed records are idempotent (each carries its rowid),
        but index pages written after the checkpoint are not trusted:
        they are cleared up front — so replay's unique checks see only
        what this pass inserted — and every index is rebuilt from the
        recovered heaps at the end. *)
     attach_ddls m.ddls;
     clear_indexes t;
     (match wal_path with
      | Some p -> replay t (Wal.committed_ops (Wal.ops_from p ~pos:m.wal_lines))
      | None -> ());
     rebuild_indexes t;
     reanalyze
       (List.sort_uniq String.compare (m.analyzed @ t.analyzed))
   | _ when wal_base > 0 ->
     failwith
       "recovery: the WAL prefix was truncated and no manifest covers it; \
        restore the data directory or re-seed from the primary"
   | _ ->
     Storage.wipe_pages st;
     replay t (Wal.committed_ops all_ops));
  advance_txids t all_ops;
  (match wal_path with Some p -> t.wal <- Some (Wal.open_log p) | None -> ());
  Bufpool.set_wal_barrier (Storage.pool st) (fun () -> log_flush t);
  t

let open_disk ?wal ~dir () = open_disk_at ~dir ~wal_path:wal ~temp:false

let open_in_memory () =
  if env_disk () then
    (* same volatile semantics as the vector backend — no WAL, pages in
       a private temp dir deleted at close — but all reads go through
       the buffer pool *)
    open_disk_at ~dir:(fresh_temp_dir ()) ~wal_path:None ~temp:true
  else mk_db ()

let open_with_wal path =
  if env_disk () then
    open_disk_at ~dir:(path ^ ".pages") ~wal_path:(Some path) ~temp:false
  else begin
    Wal.trim_torn_tail path;
    if Wal.read_base path > 0 then
      failwith
        "recovery: the WAL prefix was truncated, but the in-memory backend \
         has no checkpointed pages to recover it from";
    let all_ops = Wal.read_ops path in
    let t = mk_db () in
    replay t (Wal.committed_ops all_ops);
    advance_txids t all_ops;
    t.wal <- Some (Wal.open_log path);
    t
  end

let storage t = t.storage
let is_disk t = t.storage <> None
let data_dir t = Option.map Storage.dir t.storage

(* Final-state DDL for the manifest: each table's CREATE TABLE (which
   re-creates its implicit pkey index) followed by its secondary
   indexes, tables in name order. *)
let manifest_ddls t =
  List.concat_map
    (fun tname ->
      match Catalog.find_table t.cat tname with
      | None -> []
      | Some tbl ->
        let schema = Table.schema tbl in
        let pkey_name = schema.Schema.table_name ^ "_pkey" in
        Schema.to_string schema
        :: List.filter_map
             (fun idx ->
               if Index.name idx = pkey_name then None
               else
                 Some
                   (Printf.sprintf "CREATE %s%sINDEX %s ON %s (%s)"
                      (if Index.is_unique idx then "UNIQUE " else "")
                      (match Index.kind idx with
                       | Index.Hash -> "HASH "
                       | Index.Btree -> "")
                      (Index.name idx) tname
                      (String.concat ", " (Index.columns idx))))
             (Table.indexes tbl))
    (Catalog.table_names t.cat)

let checkpoint ?truncate_upto t =
  match t.storage with
  | None -> ()
  | Some st ->
    (* order: log first, then pages, then the manifest that blesses them *)
    log_flush t;
    Bufpool.flush (Storage.pool st);
    let wal_lines =
      match t.wal with Some w -> Wal.line_count (Wal.path w) | None -> 0
    in
    Storage.write_manifest st
      { Storage.wal_lines; ddls = manifest_ddls t; analyzed = t.analyzed };
    (* the manifest pins everything below [wal_lines]; a WAL prefix
       below the caller's bound (the slowest connected replica's
       acknowledged position, typically) is dead weight. Only called at
       statement boundaries: truncating inside an open transaction
       would orphan its commit/rollback record past its operations. *)
    match truncate_upto, t.wal with
    | Some upto, Some w ->
      let upto = min upto wal_lines in
      let spools = Wal.truncate_prefix w ~upto in
      List.iter (fun sp -> try Sys.remove sp with Sys_error _ -> ()) spools
    | _ -> ()

let close t =
  let s = default t in
  (match s.s_txn with
   | Some txn ->
     abort t txn;
     s.s_txn <- None
   | None -> ());
  (match t.storage with
   | None -> ()
   | Some st ->
     checkpoint t;
     List.iter
       (fun n -> Option.iter Table.close (Catalog.find_table t.cat n))
       (Catalog.table_names t.cat);
     ignore st);
  Option.iter Wal.close t.wal;
  match t.storage with
  | Some st when t.temp_storage -> rm_rf (Storage.dir st)
  | _ -> ()

(* ---------------- public API ---------------- *)

let session_exec s sql =
  match Sql_parser.parse sql with
  | stmt ->
    (try Ok (execute_in s stmt) with
     | Db_error m -> Error m
     | Planner.Plan_error m -> Error ("planning: " ^ m)
     | Executor.Runtime_error m -> Error ("execution: " ^ m)
     | Failure m -> Error m)
  | exception ((Sql_parser.Parse_error _ | Sql_lexer.Lex_error _) as e) ->
    Error (Sql_parser.error_to_string e)

let exec t sql = session_exec (default t) sql

let session_in_transaction s = s.s_txn <> None

let exec_exn t sql =
  match exec t sql with
  | Ok r -> r
  | Error m -> failwith (Printf.sprintf "SQL failed (%s): %s" sql m)

let query t sql =
  match exec t sql with
  | Ok (Rows { columns; rows }) -> Ok (columns, rows)
  | Ok _ -> Error "statement did not return rows"
  | Error _ as e -> e

let query_exn t sql =
  match query t sql with
  | Ok r -> r
  | Error m -> failwith (Printf.sprintf "SQL query failed (%s): %s" sql m)

let insert_rows t ~table rows =
  try
    let tbl = find_table t table in
    let s = default t in
    let txn, auto = charge s in
    (try
       lock_table s txn Lock_manager.Exclusive table;
       stash_append t txn tbl;
       let count = ref 0 in
       List.iter
         (fun row ->
           match Table.insert tbl row with
           | Ok rowid ->
             txn.undo_ops <- Undo_insert { table = tbl; rowid } :: txn.undo_ops;
             log t
               (Wal.Insert
                  { txid = txn.txn_id; table = Catalog.normalize table; row;
                    rowid });
             incr count
           | Error m -> error "%s" m)
         rows;
       Catalog.bump_version t.cat;
       if auto then commit_txn t txn;
       Ok !count
     with e ->
       if auto then abort t txn;
       raise e)
  with
  | Db_error m -> Error m
  | Failure m -> Error m

(* Spool-then-load: one WAL Load record stands in for per-row Insert
   records; rows append through {!Table.append_bulk} (no per-row index
   maintenance) and each index is then built in one pass — bottom-up
   from an externally sorted run when it is an empty paged tree,
   row-at-a-time over just the appended range otherwise. A row-at-a-time
   posting is one page-native descent and slot insert (tens of
   microseconds per row across a table's indexes, against ~100 per
   posting when every touched page was decoded whole), which keeps a
   load into a non-empty warehouse within 2x of the in-memory harvest
   without a sorted merge. The final
   table and index state is identical to per-row inserts of the same
   rows: rowids are sequential appends either way, and per-key posting
   order is rowid-ascending under both build strategies. *)
let bulk_load t ~table ~spool ~rows =
  try
    let tbl = find_table t table in
    let s = default t in
    let txn, auto = charge s in
    (try
       lock_table s txn Lock_manager.Exclusive table;
       stash_append t txn tbl;
       let first = Table.next_rowid tbl in
       log t
         (Wal.Load
            { txid = txn.txn_id; table = Catalog.normalize table; spool; rows;
              first });
       (* undo first: a failure mid-append must still tombstone the rows
          already in (deleting past the end is a no-op) *)
       txn.undo_ops <- Undo_bulk { table = tbl; first; count = rows } :: txn.undo_ops;
       let n = ref 0 in
       Storage.spool_iter spool (fun row ->
           match Table.append_bulk tbl row with
           | Ok _ -> incr n
           | Error m -> error "%s" m);
       if !n <> rows then
         error "bulk load: spool %s holds %d rows, expected %d" spool !n rows;
       List.iter
         (fun idx ->
           if Index.is_paged idx && Index.entry_count idx = 0 then begin
             let pairs =
               Seq.map
                 (fun (rowid, row) ->
                   (Rowcodec.encode (Index.key_of_row idx row), rowid))
                 (Table.scan tbl)
             in
             let sorted =
               match t.storage with
               | Some st -> Storage.external_sort st ~name:(Index.name idx) pairs
               | None -> assert false (* paged index implies disk backend *)
             in
             match Index.bulk_load idx sorted with
             | Ok () -> ()
             | Error m -> error "%s" m
           end
           else
             Seq.iter
               (fun (rowid, row) ->
                 match Index.insert idx row rowid with
                 | Ok () -> ()
                 | Error m -> error "%s" m)
               (Table.scan_range tbl ~lo:first ~hi:(first + !n)))
         (Table.indexes tbl);
       Catalog.bump_version t.cat;
       if auto then commit_txn t txn;
       Ok !n
     with e ->
       if auto then abort t txn;
       raise e)
  with
  | Db_error m -> Error m
  | Failure m -> Error m

let exec_script t script =
  match Sql_parser.parse_many script with
  | stmts ->
    let rec go n = function
      | [] -> Ok n
      | stmt :: rest ->
        (match
           try Ok (execute t stmt) with
           | Db_error m -> Error m
           | Planner.Plan_error m -> Error ("planning: " ^ m)
           | Executor.Runtime_error m -> Error ("execution: " ^ m)
           | Failure m -> Error m
         with
         | Ok _ -> go (n + 1) rest
         | Error m -> Error m)
    in
    go 0 stmts
  | exception ((Sql_parser.Parse_error _ | Sql_lexer.Lex_error _) as e) ->
    Error (Sql_parser.error_to_string e)

let explain t sql =
  match exec t ("EXPLAIN " ^ sql) with
  | Ok (Explained s) -> Ok s
  | Ok _ -> Error "not an explainable statement"
  | Error _ as e -> e

let explain_analyze t sql =
  match exec t ("EXPLAIN ANALYZE " ^ sql) with
  | Ok (Explained s) -> Ok s
  | Ok _ -> Error "not an explainable statement"
  | Error _ as e -> e

let plan_select t sel = Planner.plan_select t.cat sel

let run_planned t ?obs ?cancel (planned : Planner.planned) =
  let view = snap_register t ~self:(-1) in
  Fun.protect ~finally:(fun () -> snap_release t view) @@ fun () ->
  (planned.column_names,
   List.of_seq (Executor.run t.cat ?obs ?cancel ~view planned.plan))

(* ---------------- replication hooks ----------------

   The primary ships raw WAL lines; a replica appends them to its own
   log verbatim — so the replica's WAL is line-for-line the primary's
   stream and logical record positions agree across nodes by
   construction — then applies committed transactions through the MVCC
   machinery so replica reads stay snapshot-consistent mid-apply. *)

let wal_position t = match t.wal with Some w -> Wal.position w | None -> 0
let wal_base t = match t.wal with Some w -> Wal.base w | None -> 0
let wal_file t = Option.map Wal.path t.wal

let repl_append_lines t lines =
  match t.wal with
  | None -> ()
  | Some w ->
    List.iter (Wal.append_line w) lines;
    Wal.flush w

(* Apply one shipped committed transaction (its data operations, in
   stream order; control records are ignored). Same idempotent logic as
   recovery replay — a replica restarting mid-stream re-receives records
   it already applied — wrapped in stash/seal so concurrent snapshot
   readers on this replica never observe a half-applied transaction's
   rows torn against each other within one table. *)
let repl_apply_txn t (ops : Wal.op list) =
  let txid =
    match
      List.find_map
        (fun (op : Wal.op) ->
          match op with
          | Wal.Insert { txid; _ } | Wal.Delete { txid; _ }
          | Wal.Update { txid; _ } | Wal.Load { txid; _ } -> Some txid
          | _ -> None)
        ops
    with
    | Some txid -> txid
    | None -> t.next_txid
  in
  if txid >= t.next_txid then t.next_txid <- txid + 1;
  let touched = ref [] in
  let touch_tbl tbl =
    if not (List.memq tbl !touched) then touched := tbl :: !touched
  in
  let stash_mut tbl rowid =
    touch_tbl tbl;
    ignore (Table.stash_row tbl ~txid rowid)
  in
  let stash_app tbl =
    touch_tbl tbl;
    Table.stash_len tbl ~txid
  in
  List.iter
    (fun (op : Wal.op) ->
      match op with
      | Wal.Insert { table; row; rowid; _ } ->
        let tbl = find_table t table in
        if Table.next_rowid tbl <= rowid then begin
          stash_app tbl;
          match Table.insert tbl row with
          | Ok r ->
            if r <> rowid then
              failwith
                (Printf.sprintf
                   "replication: %s applied rowid %d where the stream says %d"
                   table r rowid)
          | Error m -> failwith ("replication: " ^ m)
        end
      | Wal.Delete { table; rowid; _ } ->
        let tbl = find_table t table in
        stash_mut tbl rowid;
        ignore (Table.delete tbl rowid)
      | Wal.Update { table; rowid; row; _ } ->
        let tbl = find_table t table in
        stash_mut tbl rowid;
        (match Table.update tbl rowid row with
         | Ok () -> ()
         | Error m -> failwith ("replication: " ^ m))
      | Wal.Load { table; spool; rows; first; _ } ->
        let tbl = find_table t table in
        let have = max 0 (min rows (Table.next_rowid tbl - first)) in
        if have < rows then begin
          stash_app tbl;
          if not (Sys.file_exists spool) then
            failwith
              (Printf.sprintf "replication: bulk-load spool %s is missing"
                 spool);
          let n = ref 0 in
          Storage.spool_iter spool (fun row ->
              (if !n >= have then
                 match Table.insert tbl row with
                 | Ok _ -> ()
                 | Error m -> failwith ("replication: " ^ m));
              incr n)
        end
      | Wal.Ddl _ | Wal.Begin _ | Wal.Commit _ | Wal.Rollback _ -> ())
    ops;
  advance_clock t ~txid ~touched:!touched;
  Catalog.bump_version t.cat

(* Apply a shipped DDL statement. [replaying] suppresses re-logging (the
   raw line was already appended by the shipper) and lock acquisition;
   the DDL handlers bump the catalog version themselves, which is what
   invalidates the replica's plan cache. *)
let repl_apply_ddl t sql =
  t.replaying <- true;
  Fun.protect ~finally:(fun () -> t.replaying <- false) @@ fun () ->
  match Sql_parser.parse sql with
  | stmt -> ignore (execute t stmt)
  | exception e -> failwith ("replication: bad DDL: " ^ Printexc.to_string e)
