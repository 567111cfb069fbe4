open Sql_ast

exception Plan_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Plan_error m)) fmt

type planned = {
  plan : Plan.t;
  column_names : string list;
  rewrites : (string * int) list;
  est_cost : float;
      (* root cost estimate of the final (rewritten) plan, in "rows
         touched"; the scheduler's cost gate reads it at dispatch time *)
}

(* A scope maps (qualifier, column) pairs to row slots. Qualifiers are
   table aliases, normalized to lowercase. *)
type scope_entry = { qualifier : string option; name : string }

type scope = scope_entry array

let norm = String.lowercase_ascii

type env = {
  catalog : Catalog.t;
  scope : scope;
  outer : scope list;  (* enclosing query scopes, outermost first *)
}

(* A recognised containment-join pattern between the joined set and a
   candidate unit: [doc_set = doc_unit AND lo (<|<=) pos (<|<=) hi] with
   the position on one role and both interval bounds on the other. *)
type structural_match = {
  sm_doc_set : Sql_ast.expr;   (* document key, set side *)
  sm_doc_unit : Sql_ast.expr;  (* document key, unit side *)
  sm_pos : Sql_ast.expr;
  sm_lo : Sql_ast.expr;
  sm_hi : Sql_ast.expr;
  sm_lo_incl : bool;
  sm_hi_incl : bool;
  sm_pos_on_unit : bool;  (* position on the candidate unit => interval on the set *)
  sm_used : Sql_ast.expr list;  (* conjuncts the operator consumes *)
}

let scope_find (scope : scope) ~table ~column =
  let column = norm column in
  let matches =
    List.filter
      (fun (i, e) ->
        ignore i;
        norm e.name = column
        && (match table with
            | None -> true
            | Some t -> e.qualifier = Some (norm t)))
      (Array.to_list (Array.mapi (fun i e -> (i, e)) scope))
  in
  match matches with
  | [] -> None
  | [ (i, _) ] -> Some i
  | _ :: _ ->
    error "ambiguous column reference %s%s"
      (match table with Some t -> t ^ "." | None -> "")
      column

(* Resolve a column: current scope first, then enclosing scopes (giving a
   parameter slot: at runtime the outer rows are concatenated outermost
   first). *)
let resolve env ~table ~column : Plan.cexpr =
  match scope_find env.scope ~table ~column with
  | Some i -> Plan.CCol i
  | None ->
    (* search outer frames innermost-first; offsets are outermost-first *)
    let frames = Array.of_list env.outer in
    let nframes = Array.length frames in
    let rec search k =
      if k < 0 then
        error "unknown column %s%s"
          (match table with Some t -> t ^ "." | None -> "")
          column
      else
        match scope_find frames.(k) ~table ~column with
        | Some i ->
          let offset = ref 0 in
          for j = 0 to k - 1 do offset := !offset + Array.length frames.(j) done;
          Plan.CParam (!offset + i)
        | None -> search (k - 1)
    in
    search (nframes - 1)

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

let rec compile env (e : expr) : Plan.cexpr =
  match e with
  | Lit v -> CLit v
  | Col { table; column } -> resolve env ~table ~column
  | Binop (op, a, b) -> CBinop (op, compile env a, compile env b)
  | Unop (op, a) -> CUnop (op, compile env a)
  | Fn (name, args) -> CFn (name, List.map (compile env) args)
  | Like { subject; pattern; escape; negated } ->
    CLike
      { subject = compile env subject; pattern = compile env pattern;
        escape = Option.map (compile env) escape; negated }
  | In_list { subject; candidates; negated } ->
    CIn_list
      { subject = compile env subject;
        candidates = List.map (compile env) candidates;
        negated }
  | Is_null { subject; negated } -> CIs_null { subject = compile env subject; negated }
  | Between { subject; low; high; negated } ->
    CBetween
      { subject = compile env subject; low = compile env low;
        high = compile env high; negated }
  | Case { branches; else_ } ->
    CCase
      { branches = List.map (fun (c, r) -> (compile env c, compile env r)) branches;
        else_ = Option.map (compile env) else_ }
  | In_select { subject; select; negated } ->
    let sub = plan_subquery env select in
    CIn_plan { subject = compile env subject; plan = sub.plan; negated }
  | Exists { select; negated } ->
    let sub = plan_subquery env select in
    CExists_plan { plan = sub.plan; negated }
  | Scalar_subquery select ->
    let sub = plan_subquery env select in
    CScalar_plan sub.plan
  | Agg _ -> error "aggregate function in an invalid position"

and plan_subquery env select =
  plan_select_in env.catalog ~outer:(env.outer @ [ env.scope ]) select

(* ------------------------------------------------------------------ *)
(* Conjunct analysis                                                   *)
(* ------------------------------------------------------------------ *)

and conjuncts_of = function
  | Binop (And, a, b) -> conjuncts_of a @ conjuncts_of b
  | e -> [ e ]

and has_subquery (e : expr) =
  let rec go = function
    | In_select _ | Exists _ | Scalar_subquery _ -> true
    | Lit _ | Col _ -> false
    | Binop (_, a, b) -> go a || go b
    | Unop (_, a) -> go a
    | Fn (_, args) -> List.exists go args
    | Like { subject; pattern; escape; _ } ->
      go subject || go pattern
      || (match escape with Some e -> go e | None -> false)
    | In_list { subject; candidates; _ } -> go subject || List.exists go candidates
    | Is_null { subject; _ } -> go subject
    | Between { subject; low; high; _ } -> go subject || go low || go high
    | Case { branches; else_ } ->
      List.exists (fun (c, r) -> go c || go r) branches
      || (match else_ with Some e -> go e | None -> false)
    | Agg { arg; _ } -> (match arg with Some a -> go a | None -> false)
  in
  go e

(* Which units does an expression's column references touch?
   [unit_scopes] are the scopes of each unit; refs that resolve in an
   enclosing scope count as constants (empty set). *)
and referenced_units ~unit_scopes ~outer (e : expr) : int list =
  let hits = ref [] in
  let note i = if not (List.mem i !hits) then hits := i :: !hits in
  let resolve_col table column =
    let candidates =
      List.filteri
        (fun _ scope -> scope_find scope ~table ~column <> None)
        unit_scopes
    in
    ignore candidates;
    let matching =
      List.concat
        (List.mapi
           (fun i scope ->
             match scope_find scope ~table ~column with
             | Some _ -> [ i ]
             | None -> [])
           unit_scopes)
    in
    match matching with
    | [ i ] -> note i
    | [] ->
      (* must resolve in an outer scope, otherwise it is an error that
         compilation will report with a good message *)
      let found =
        List.exists (fun scope -> scope_find scope ~table ~column <> None) outer
      in
      if not found then
        error "unknown column %s%s"
          (match table with Some t -> t ^ "." | None -> "")
          column
    | _ :: _ :: _ ->
      error "ambiguous column reference %s%s"
        (match table with Some t -> t ^ "." | None -> "")
        column
  in
  let rec go = function
    | Lit _ -> ()
    | Col { table; column } -> resolve_col table column
    | Binop (_, a, b) -> go a; go b
    | Unop (_, a) -> go a
    | Fn (_, args) -> List.iter go args
    | Like { subject; pattern; escape; _ } ->
      go subject; go pattern; Option.iter go escape
    | In_list { subject; candidates; _ } -> go subject; List.iter go candidates
    | Is_null { subject; _ } -> go subject
    | Between { subject; low; high; _ } -> go subject; go low; go high
    | Case { branches; else_ } ->
      List.iter (fun (c, r) -> go c; go r) branches;
      Option.iter go else_
    | In_select _ | Exists _ | Scalar_subquery _ ->
      (* handled by the has_subquery residual rule *) ()
    | Agg { arg; _ } -> Option.iter go arg
  in
  go e;
  List.sort compare !hits

(* ------------------------------------------------------------------ *)
(* Access-path selection for a base table                              *)
(* ------------------------------------------------------------------ *)

and split_conjunction compiled =
  match compiled with
  | [] -> None
  | first :: rest ->
    Some (List.fold_left (fun acc c -> Plan.CBinop (And, acc, c)) first rest)

(* preds reference only this unit (or constants / outer scopes). *)
and access_path catalog ~outer ~table_name ~scope preds =
  let table =
    match Catalog.find_table catalog table_name with
    | Some t -> t
    | None -> error "no such table %S" table_name
  in
  let const_env = { catalog; scope = [||]; outer } in
  let unit_env = { catalog; scope; outer } in
  let is_const e =
    match referenced_units ~unit_scopes:[ scope ] ~outer e with
    | [] -> not (has_subquery e)
    | _ -> false
  in
  let col_of = function
    | Col { table = _; column } ->
      (match scope_find scope ~table:None ~column with
       | Some _ -> Some (norm column)
       | None -> None)
    | _ -> None
  in
  (* candidate equality and range bounds per column *)
  let eqs : (string * expr * expr) list ref = ref [] in  (* col, const, original pred *)
  let ranges : (string * ([ `Lo of bool | `Hi of bool ] * expr) * expr) list ref =
    ref []
  in
  let classify pred =
    match pred with
    | Binop (Eq, a, b) ->
      (match col_of a, is_const b with
       | Some c, true -> eqs := (c, b, pred) :: !eqs
       | _ ->
         (match col_of b, is_const a with
          | Some c, true -> eqs := (c, a, pred) :: !eqs
          | _ -> ()))
    | Binop ((Lt | Le | Gt | Ge) as op, a, b) ->
      let dir_of op flipped =
        match op, flipped with
        | Lt, false -> `Hi false | Le, false -> `Hi true
        | Gt, false -> `Lo false | Ge, false -> `Lo true
        | Lt, true -> `Lo false | Le, true -> `Lo true
        | Gt, true -> `Hi false | Ge, true -> `Hi true
        | _ -> assert false
      in
      (match col_of a, is_const b with
       | Some c, true -> ranges := (c, (dir_of op false, b), pred) :: !ranges
       | _ ->
         (match col_of b, is_const a with
          | Some c, true -> ranges := (c, (dir_of op true, a), pred) :: !ranges
          | _ -> ()))
    | Between { subject; low; high; negated = false } ->
      (match col_of subject, is_const low && is_const high with
       | Some c, true ->
         ranges := (c, (`Lo true, low), pred) :: !ranges;
         ranges := (c, (`Hi true, high), pred) :: !ranges
       | _ -> ())
    | _ -> ()
  in
  List.iter classify preds;
  let indexes = Table.indexes table in
  (* full-key equality match: every index column has an eq candidate *)
  let eq_match idx =
    let cols = List.map norm (Index.columns idx) in
    let rec collect acc = function
      | [] -> Some (List.rev acc)
      | c :: rest ->
        (match List.find_opt (fun (c', _, _) -> c' = c) !eqs with
         | Some (_, const, pred) -> collect ((const, pred) :: acc) rest
         | None -> None)
    in
    collect [] cols
  in
  (* every index with a full-key equality match is a lookup candidate *)
  let lookup_candidates =
    let cands =
      List.filter_map
        (fun idx -> match eq_match idx with Some keys -> Some (idx, keys) | None -> None)
        indexes
    in
    (* stable preference on cost ties: unique first, then wider keys *)
    let score (idx, keys) =
      (if Index.is_unique idx then 1000 else 0) + List.length keys
    in
    List.sort (fun a b -> compare (score b) (score a)) cands
  in
  (* every single-column B+tree with at least one usable bound *)
  let range_candidates =
    List.filter_map
      (fun idx ->
        if Index.kind idx <> Index.Btree then None
        else
          match Index.columns idx with
          | [ col ] ->
            let col = norm col in
            let bounds = List.filter (fun (c, _, _) -> c = col) !ranges in
            if bounds = [] then None
            else begin
              let lo =
                List.find_map
                  (fun (_, (d, e), p) ->
                    match d with `Lo incl -> Some (e, incl, p) | `Hi _ -> None)
                  bounds
              in
              let hi =
                List.find_map
                  (fun (_, (d, e), p) ->
                    match d with `Hi incl -> Some (e, incl, p) | `Lo _ -> None)
                  bounds
              in
              Some (idx, col, lo, hi)
            end
          | _ -> None)
      indexes
  in
  let rows = float_of_int (max 1 (Table.row_count table)) in
  let tstats = Catalog.find_stats catalog (Catalog.normalize table_name) in
  let col_stats c = Option.bind tstats (fun ts -> Stats.find_column ts c) in
  let lit_of = function Lit v -> Some v | _ -> None in
  (* statistics-based selectivity of a single-unit predicate *)
  let rec pred_sel p =
    let s =
      match p with
      | Binop (Eq, a, b) ->
        let stats_side =
          match col_of a, is_const b with
          | Some c, true -> col_stats c
          | _ ->
            (match col_of b, is_const a with
             | Some c, true -> col_stats c
             | _ -> None)
        in
        (match stats_side with
         | Some cs -> Stats.eq_selectivity cs
         | None -> Stats.default_eq)
      | Binop ((Lt | Le | Gt | Ge) as op, a, b) ->
        let directional col_e lit_e ~col_on_left =
          match col_of col_e, Option.bind (Some lit_e) lit_of with
          | Some c, Some v ->
            (match col_stats c with
             | Some cs ->
               let le = Stats.le_fraction cs v in
               let col_le =
                 match op, col_on_left with
                 | (Lt | Le), true -> true
                 | (Gt | Ge), true -> false
                 | (Lt | Le), false -> false
                 | (Gt | Ge), false -> true
                 | _ -> true
               in
               if col_le then le
               else Float.max 0. (1. -. cs.Stats.null_frac -. le)
             | None -> Stats.default_range)
          | _ -> Stats.default_range
        in
        if col_of a <> None && is_const b then directional a b ~col_on_left:true
        else if col_of b <> None && is_const a then directional b a ~col_on_left:false
        else Stats.default_range
      | Between { subject; low; high; negated } ->
        let s =
          match col_of subject, lit_of low, lit_of high with
          | Some c, (Some _ as lo), hi | Some c, lo, (Some _ as hi) ->
            (match col_stats c with
             | Some cs ->
               Stats.range_selectivity cs
                 ~lo:(Option.map (fun v -> (v, true)) lo)
                 ~hi:(Option.map (fun v -> (v, true)) hi)
             | None -> Stats.default_range)
          | _ -> Stats.default_range
        in
        if negated then 1. -. s else s
      | Like { negated; _ } ->
        if negated then 1. -. Stats.default_like else Stats.default_like
      | Is_null { subject; negated } ->
        (match Option.bind (col_of subject) col_stats with
         | Some cs -> Stats.null_selectivity cs ~negated
         | None -> if negated then 0.9 else 0.1)
      | In_list { subject; candidates; negated } ->
        let eq =
          match Option.bind (col_of subject) col_stats with
          | Some cs -> Stats.eq_selectivity cs
          | None -> Stats.default_eq
        in
        let s =
          Float.min Stats.default_other
            (float_of_int (List.length candidates) *. eq)
        in
        if negated then 1. -. s else s
      | Binop (Or, a, b) ->
        let sa = pred_sel a and sb = pred_sel b in
        sa +. sb -. (sa *. sb)
      | Binop (And, a, b) -> pred_sel a *. pred_sel b
      | Unop (Not, a) -> 1. -. pred_sel a
      | _ -> Stats.default_other
    in
    Float.max 1e-4 (Float.min 1.0 s)
  in
  let sel_of_preds ps = List.fold_left (fun s p -> s *. pred_sel p) 1.0 ps in
  let probe_cost idx = Float.log (float_of_int (Index.entry_count idx) +. 2.) /. Float.log 2. in
  (* rank all access paths by estimated cost; ties keep list order
     (lookups, then ranges, then the sequential scan) *)
  let candidates =
    List.map
      (fun (idx, keys) ->
        let used_preds = List.map snd keys in
        let rest = List.filter (fun p -> not (List.memq p used_preds)) preds in
        let matched =
          if Index.is_unique idx then 1.0
          else rows /. float_of_int (max 1 (Index.cardinality idx))
        in
        let est = matched *. sel_of_preds rest in
        let cost = probe_cost idx +. matched in
        let build () =
          let key = Array.of_list (List.map (fun (c, _) -> compile const_env c) keys) in
          let filter = split_conjunction (List.map (compile unit_env) rest) in
          Plan.Index_lookup
            { table = Catalog.normalize table_name; index = Index.name idx; key; filter }
        in
        (build, est, cost))
      lookup_candidates
    @ List.map
        (fun (idx, col, lo, hi) ->
          let used =
            (match lo with Some (_, _, p) -> [ p ] | None -> [])
            @ (match hi with Some (_, _, p) -> [ p ] | None -> [])
          in
          let rest = List.filter (fun p -> not (List.memq p used)) preds in
          let frac =
            match col_stats col with
            | Some cs ->
              let value = function
                | Some (e, incl, _) -> Option.map (fun v -> (v, incl)) (lit_of e)
                | None -> None
              in
              (match lo, hi, value lo, value hi with
               | Some _, _, None, _ | _, Some _, _, None ->
                 (* non-literal bound: no histogram guidance *)
                 Stats.default_range
               | _ -> Stats.range_selectivity cs ~lo:(value lo) ~hi:(value hi))
            | None -> Stats.default_range
          in
          let matched = rows *. frac in
          let est = matched *. sel_of_preds rest in
          let cost = probe_cost idx +. matched in
          let build () =
            let bound = Option.map (fun (e, incl, _) -> ([| compile const_env e |], incl)) in
            let filter = split_conjunction (List.map (compile unit_env) rest) in
            Plan.Index_range
              { table = Catalog.normalize table_name; index = Index.name idx;
                lo = bound lo; hi = bound hi; filter }
          in
          (build, est, cost))
        range_candidates
    @ [ (let est = Float.max 0.01 (rows *. sel_of_preds preds) in
         let build () =
           let filter = split_conjunction (List.map (compile unit_env) preds) in
           Plan.Seq_scan { table = Catalog.normalize table_name; filter }
         in
         (build, est, rows +. 1.)) ]
  in
  let best =
    List.fold_left
      (fun acc (build, est, cost) ->
        match acc with
        | None -> Some (build, est, cost)
        | Some (_, _, best_cost) when cost < best_cost -> Some (build, est, cost)
        | Some _ -> acc)
      None candidates
  in
  match best with
  | Some (build, est, cost) -> (build (), est, cost)
  | None -> assert false

(* ------------------------------------------------------------------ *)
(* FROM planning                                                       *)
(* ------------------------------------------------------------------ *)

(* A unit is one relation participating in join ordering. *)
and plan_from catalog ~outer (from : table_ref list) (where : expr option) :
  Plan.t * scope * expr list =
  (* returns (plan, scope, leftover conjuncts not yet applied) *)
  let has_left_join =
    let rec check = function
      | Table _ | Derived _ -> false
      | Join { kind = Left_outer; _ } -> true
      | Join { left; right; _ } -> check left || check right
    in
    List.exists check from
  in
  if has_left_join then plan_from_structural catalog ~outer from where
  else begin
    (* flatten into units + conjuncts *)
    let units : (string * scope * Plan.t option * string option) list ref = ref [] in
    (* (alias, scope, derived plan, base table name) *)
    let conds = ref [] in
    let add_unit alias scope dplan base =
      let alias = norm alias in
      if List.exists (fun (a, _, _, _) -> a = alias) !units then
        error "duplicate table alias %S" alias;
      units := !units @ [ (alias, scope, dplan, base) ]
    in
    let rec walk = function
      | Table { name; alias } ->
        let table =
          match Catalog.find_table catalog name with
          | Some t -> t
          | None -> error "no such table %S" name
        in
        let alias = Option.value alias ~default:name in
        let scope =
          Array.of_list
            (List.map
               (fun c -> { qualifier = Some (norm alias); name = c })
               (Schema.column_names (Table.schema table)))
        in
        add_unit alias scope None (Some name)
      | Derived { select; alias } ->
        let sub = plan_select_in catalog ~outer select in
        let scope =
          Array.of_list
            (List.map
               (fun n -> { qualifier = Some (norm alias); name = n })
               sub.column_names)
        in
        add_unit alias scope (Some sub.plan) None
      | Join { left; kind; right; on } ->
        walk left;
        walk right;
        (match kind with
         | Cross -> ()
         | Inner -> Option.iter (fun e -> conds := !conds @ conjuncts_of e) on
         | Left_outer -> assert false)
    in
    List.iter walk from;
    let conds = !conds @ (match where with Some w -> conjuncts_of w | None -> []) in
    let units = Array.of_list !units in
    let unit_scopes = List.map (fun (_, s, _, _) -> s) (Array.to_list units) in
    (* classify conjuncts *)
    let single : (int, expr list) Hashtbl.t = Hashtbl.create 8 in
    let multi = ref [] and residual = ref [] in
    List.iter
      (fun c ->
        if has_subquery c then residual := c :: !residual
        else
          match referenced_units ~unit_scopes ~outer c with
          | [] -> residual := c :: !residual  (* constant predicate *)
          | [ i ] ->
            Hashtbl.replace single i
              (c :: (match Hashtbl.find_opt single i with Some l -> l | None -> []))
          | refs -> multi := (refs, c) :: !multi)
      conds;
    (* access path per unit *)
    let planned =
      Array.mapi
        (fun i (alias, scope, dplan, base) ->
          ignore alias;
          let preds = match Hashtbl.find_opt single i with Some l -> List.rev l | None -> [] in
          match dplan, base with
          | Some p, _ ->
            (* derived table: apply its predicates as a filter *)
            let env = { catalog; scope; outer } in
            let filter = split_conjunction (List.map (compile env) preds) in
            let p = match filter with Some f -> Plan.Filter (f, p) | None -> p in
            let est = 1000.0 *. (0.5 ** float_of_int (List.length preds)) in
            (p, scope, est, est)
          | None, Some table_name ->
            let p, est, cost = access_path catalog ~outer ~table_name ~scope preds in
            (p, scope, est, cost)
          | None, None -> assert false)
        units
    in
    let n = Array.length planned in
    if n = 0 then
      (Plan.Single_row, [||], List.rev !residual)
    else begin
      (* greedy cost-ordered join ordering: each step adds the unit that
         minimises the estimated cardinality of the joined set, using
         per-column distinct counts from ANALYZE when available *)
      let in_set = Array.make n false in
      let order = ref [] in
      let remaining_multi = ref (List.map snd !multi) in
      let unit_base = Array.map (fun (_, _, _, base) -> base) units in
      (* equi-join detection between the current set and a candidate unit *)
      let is_equi_between set_scopes unit_idx c =
        match c with
        | Binop (Eq, a, b) ->
          let side e =
            match referenced_units ~unit_scopes ~outer e with
            | [] -> `Const
            | [ i ] when i = unit_idx -> `Unit
            | refs when List.for_all (fun r -> List.mem r set_scopes) refs -> `Set
            | _ -> `Other
          in
          (match side a, side b with
           | `Set, `Unit -> Some (a, b)
           | `Unit, `Set -> Some (b, a)
           | _ -> None)
        | _ -> None
      in
      (* structural-join detection: among the not-yet-applied multi-unit
         conjuncts, a doc-key equality plus a two-sided containment of a
         position expression on one role inside an interval carried by
         the other (XQ2SQL's region predicates land here as separate
         comparisons, or as a BETWEEN) *)
      let find_structural set_members unit_idx =
        let side e =
          match referenced_units ~unit_scopes ~outer e with
          | [] -> `Const
          | [ i ] when i = unit_idx -> `Unit
          | refs when List.for_all (fun r -> List.mem r set_members) refs -> `Set
          | _ -> `Other
        in
        (* every way of reading a conjunct as a bound on a position:
           (pos, pos_on_unit, `Lo|`Hi, inclusive, conjunct) *)
        let bounds = ref [] in
        List.iter
          (fun c ->
            match c with
            | Binop ((Lt | Le | Gt | Ge) as op, a, b) ->
              (match side a, side b with
               | `Set, `Unit | `Unit, `Set ->
                 let a_unit = side a = `Unit in
                 let incl = op = Le || op = Ge in
                 let kind_pos_a = match op with Lt | Le -> `Hi | _ -> `Lo in
                 let kind_pos_b = match op with Lt | Le -> `Lo | _ -> `Hi in
                 bounds := (a, a_unit, kind_pos_a, incl, b, c) :: !bounds;
                 bounds := (b, not a_unit, kind_pos_b, incl, a, c) :: !bounds
               | _ -> ())
            | Between { subject; low; high; negated = false } ->
              (match side subject, side low, side high with
               | `Unit, `Set, `Set ->
                 bounds := (subject, true, `Lo, true, low, c) :: !bounds;
                 bounds := (subject, true, `Hi, true, high, c) :: !bounds
               | `Set, `Unit, `Unit ->
                 bounds := (subject, false, `Lo, true, low, c) :: !bounds;
                 bounds := (subject, false, `Hi, true, high, c) :: !bounds
               | _ -> ())
            | _ -> ())
          !remaining_multi;
        let all = !bounds in
        let pattern =
          List.find_map
            (fun (p, on_unit, kind, lo_incl, lo_e, c1) ->
              if kind <> `Lo then None
              else
                List.find_map
                  (fun (p2, on_unit2, kind2, hi_incl, hi_e, c2) ->
                    if kind2 = `Hi && on_unit2 = on_unit && p2 = p then
                      Some (p, on_unit, lo_incl, lo_e, c1, hi_incl, hi_e, c2)
                    else None)
                  all)
            all
        in
        match pattern with
        | None -> None
        | Some (p, on_unit, lo_incl, lo_e, c1, hi_incl, hi_e, c2) ->
          (* the document key: the first equi conjunct between the
             roles (XQ2SQL emits doc_id = doc_id) *)
          let doc =
            List.find_map
              (fun c ->
                if c == c1 || c == c2 then None
                else
                  Option.map
                    (fun pair -> (pair, c))
                    (is_equi_between set_members unit_idx c))
              !remaining_multi
          in
          (match doc with
           | None -> None
           | Some ((doc_set, doc_unit), doc_c) ->
             Some
               { sm_doc_set = doc_set; sm_doc_unit = doc_unit;
                 sm_pos = p; sm_lo = lo_e; sm_hi = hi_e;
                 sm_lo_incl = lo_incl; sm_hi_incl = hi_incl;
                 sm_pos_on_unit = on_unit;
                 sm_used =
                   (if c1 == c2 then [ doc_c; c1 ] else [ doc_c; c1; c2 ]) })
      in
      (* distinct count of a plain column reference, via ANALYZE stats *)
      let distinct_of_expr e =
        match e with
        | Col { column; _ } ->
          (match referenced_units ~unit_scopes ~outer e with
           | [ i ] ->
             (match unit_base.(i) with
              | Some base ->
                Option.bind
                  (Catalog.find_stats catalog (Catalog.normalize base))
                  (fun ts ->
                    Option.map
                      (fun cs -> cs.Stats.n_distinct)
                      (Stats.find_column ts column))
              | None -> None)
           | _ -> None)
        | _ -> None
      in
      (* estimated output cardinality of joining the current set (set_rows)
         with a unit (unit_rows) over equi keys [joins] *)
      let joined_est set_rows unit_rows joins =
        let key_sels =
          List.filter_map
            (fun (se, ue) ->
              match distinct_of_expr se, distinct_of_expr ue with
              | Some d1, Some d2 ->
                Some (1. /. float_of_int (max 1 (max d1 d2)))
              | Some d, None | None, Some d ->
                Some (1. /. float_of_int (max 1 d))
              | None, None -> None)
            joins
        in
        match key_sels with
        | [] ->
          if joins = [] then set_rows *. unit_rows  (* cross product *)
          else
            (* equi join, no stats: assume key/foreign-key *)
            set_rows *. unit_rows /. Float.max 1. (Float.max set_rows unit_rows)
        | ss -> set_rows *. unit_rows *. List.fold_left ( *. ) 1.0 ss
      in
      (* pick the starting unit: smallest estimate *)
      let start = ref 0 in
      Array.iteri
        (fun i (_, _, est, _) ->
          let _, _, best, _ = planned.(!start) in
          if est < best then start := i)
        planned;
      in_set.(!start) <- true;
      order := [ !start ];
      let current_plan = ref (let p, _, _, _ = planned.(!start) in p) in
      let current_scope = ref (let _, s, _, _ = planned.(!start) in s) in
      let current_members = ref [ !start ] in
      let current_rows = ref (let _, _, est, _ = planned.(!start) in est) in
      for _ = 2 to n do
        (* choose the candidate minimising estimated output rows plus the
           cost of producing the unit's side: a hash join scans the unit
           once (small weight keeps output cardinality in charge), but a
           unit joined without equi keys becomes a nested-loop right side
           and is re-executed per left row — charge its full scan cost so
           an expensive scan never lands there when a cheap one can *)
        let best = ref None in
        Array.iteri
          (fun i (_, _, est, cost) ->
            if not in_set.(i) then begin
              let joins =
                List.filter_map (is_equi_between !current_members i) !remaining_multi
              in
              let has_equi = joins <> [] in
              let est_out = joined_est !current_rows est joins in
              let metric =
                est_out
                +. (if has_equi then 0.01 *. cost
                    else Float.max 1. !current_rows *. cost)
              in
              (* a containment pattern turns the hash-join-then-filter
                 into one merge pass: output shrinks by the two bound
                 conjuncts' selectivity, at the price of sorting both
                 sides — picked only when that beats the hash metric *)
              let est_out, metric, mode =
                match if has_equi then find_structural !current_members i else None with
                | Some sm ->
                  let est_struct = est_out *. 0.25 in
                  (* with ANALYZE distinct counts for both document keys
                     the merge's two key sorts are charged against real
                     cardinalities (n·log2 n each side) — at low region
                     density the hash-join-plus-filter then wins, which
                     is exactly the E7 density-16 regime; without stats
                     keep the legacy flat charge *)
                  let sort_charge =
                    match
                      distinct_of_expr sm.sm_doc_set,
                      distinct_of_expr sm.sm_doc_unit
                    with
                    | Some _, Some _ ->
                      Cost.structural_sort_cost !current_rows est
                    | _ -> 0.002 *. (!current_rows +. est)
                  in
                  let metric_struct =
                    est_struct +. (0.01 *. cost) +. sort_charge
                  in
                  if metric_struct < metric then (est_struct, metric_struct, `Structural sm)
                  else (est_out, metric, `Hash)
                | None -> (est_out, metric, if has_equi then `Hash else `Nlj)
              in
              match !best with
              | None -> best := Some (i, est_out, metric, mode)
              | Some (_, _, best_metric, best_mode) ->
                if metric < best_metric
                   || (metric = best_metric && mode <> `Nlj && best_mode = `Nlj) then
                  best := Some (i, est_out, metric, mode)
            end)
          planned;
        match !best with
        | None -> ()
        | Some (i, est_out, _metric, mode) ->
          current_rows := Float.max 0.5 est_out;
          let unit_plan, unit_scope, _, _ = planned.(i) in
          let joined_scope = Array.append !current_scope unit_scope in
          let set_env = { catalog; scope = !current_scope; outer } in
          let unit_env = { catalog; scope = unit_scope; outer } in
          let joined_env = { catalog; scope = joined_scope; outer } in
          (match mode with
           | `Structural sm ->
             remaining_multi :=
               List.filter (fun c -> not (List.memq c sm.sm_used)) !remaining_multi;
             (* the position's side carries the point stream; the other
                side carries the (lo, hi) interval *)
             let interval_on_left = sm.sm_pos_on_unit in
             let ivl_env = if interval_on_left then set_env else unit_env in
             let pos_env = if interval_on_left then unit_env else set_env in
             current_plan :=
               Plan.Structural_join
                 { left = !current_plan;
                   right = unit_plan;
                   interval_on_left;
                   left_doc = compile set_env sm.sm_doc_set;
                   right_doc = compile unit_env sm.sm_doc_unit;
                   lo = compile ivl_env sm.sm_lo;
                   hi = compile ivl_env sm.sm_hi;
                   pos = compile pos_env sm.sm_pos;
                   lo_incl = sm.sm_lo_incl; hi_incl = sm.sm_hi_incl;
                   cond = None;
                   right_arity = Array.length unit_scope }
           | `Hash ->
             let equi, rest_multi =
               List.partition
                 (fun c -> is_equi_between !current_members i c <> None)
                 !remaining_multi
             in
             remaining_multi := rest_multi;
             let keys =
               List.map
                 (fun c -> Option.get (is_equi_between !current_members i c))
                 equi
             in
             let left_keys = Array.of_list (List.map (fun (s, _) -> compile set_env s) keys) in
             let right_keys = Array.of_list (List.map (fun (_, u) -> compile unit_env u) keys) in
             current_plan :=
               Plan.Hash_join
                 { left = !current_plan;
                   right = unit_plan;
                   left_keys; right_keys;
                   cond = None; left_outer = false;
                   right_arity = Array.length unit_scope }
           | `Nlj ->
             current_plan :=
               Plan.Nested_loop_join
                 { left = !current_plan; right = unit_plan; cond = None;
                   left_outer = false; right_arity = Array.length unit_scope });
          in_set.(i) <- true;
          current_members := i :: !current_members;
          current_scope := joined_scope;
          (* apply multi-unit predicates that are now fully contained *)
          let apply, keep =
            List.partition
              (fun c ->
                let refs = referenced_units ~unit_scopes ~outer c in
                List.for_all (fun r -> List.mem r !current_members) refs)
              !remaining_multi
          in
          remaining_multi := keep;
          (match split_conjunction (List.map (compile joined_env) apply) with
           | Some f ->
             current_plan := Plan.Filter (f, !current_plan);
             current_rows :=
               Float.max 0.5
                 (!current_rows *. (0.5 ** float_of_int (List.length apply)))
           | None -> ())
      done;
      if !remaining_multi <> [] then
        error "internal: unplaced join predicates";
      (!current_plan, !current_scope, List.rev !residual)
    end
  end

(* Structural (no-reorder) planning used when LEFT JOIN is present. *)
and plan_from_structural catalog ~outer from where =
  let rec plan_ref = function
    | Table { name; alias } ->
      let table =
        match Catalog.find_table catalog name with
        | Some t -> t
        | None -> error "no such table %S" name
      in
      let alias = norm (Option.value alias ~default:name) in
      let scope =
        Array.of_list
          (List.map
             (fun c -> { qualifier = Some alias; name = c })
             (Schema.column_names (Table.schema table)))
      in
      (Plan.Seq_scan { table = Catalog.normalize name; filter = None }, scope)
    | Derived { select; alias } ->
      let sub = plan_select_in catalog ~outer select in
      let scope =
        Array.of_list
          (List.map (fun n -> { qualifier = Some (norm alias); name = n }) sub.column_names)
      in
      (sub.plan, scope)
    | Join { left; kind; right; on } ->
      let lp, ls = plan_ref left in
      let rp, rs = plan_ref right in
      let joined = Array.append ls rs in
      let env = { catalog; scope = joined; outer } in
      let cond = Option.map (compile env) on in
      let left_outer = kind = Left_outer in
      (Plan.Nested_loop_join
         { left = lp; right = rp; cond; left_outer; right_arity = Array.length rs },
       joined)
  in
  let plan, scope =
    match from with
    | [] -> (Plan.Single_row, [||])
    | first :: rest ->
      List.fold_left
        (fun (p, s) r ->
          let rp, rs = plan_ref r in
          (Plan.Nested_loop_join
             { left = p; right = rp; cond = None; left_outer = false;
               right_arity = Array.length rs },
           Array.append s rs))
        (plan_ref first) rest
  in
  (plan, scope, match where with Some w -> conjuncts_of w | None -> [])

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

and collect_aggs (e : expr) acc =
  match e with
  | Agg _ -> if List.exists (fun a -> a = e) acc then acc else acc @ [ e ]
  | Lit _ | Col _ -> acc
  | Binop (_, a, b) -> collect_aggs b (collect_aggs a acc)
  | Unop (_, a) -> collect_aggs a acc
  | Fn (_, args) -> List.fold_left (fun acc a -> collect_aggs a acc) acc args
  | Like { subject; pattern; escape; _ } ->
    let acc = collect_aggs pattern (collect_aggs subject acc) in
    (match escape with Some e -> collect_aggs e acc | None -> acc)
  | In_list { subject; candidates; _ } ->
    List.fold_left (fun acc a -> collect_aggs a acc) (collect_aggs subject acc) candidates
  | Is_null { subject; _ } -> collect_aggs subject acc
  | Between { subject; low; high; _ } ->
    collect_aggs high (collect_aggs low (collect_aggs subject acc))
  | Case { branches; else_ } ->
    let acc =
      List.fold_left (fun acc (c, r) -> collect_aggs r (collect_aggs c acc)) acc branches
    in
    (match else_ with Some e -> collect_aggs e acc | None -> acc)
  | In_select { subject; _ } -> collect_aggs subject acc
  | Exists _ | Scalar_subquery _ -> acc

(* Compile an expression in the post-aggregation scope: group-by
   expressions and aggregate calls become column slots. *)
and compile_post_agg env ~group_exprs ~agg_exprs (e : expr) : Plan.cexpr =
  let find_slot lst x =
    let rec go i = function
      | [] -> None
      | y :: rest -> if y = x then Some i else go (i + 1) rest
    in
    go 0 lst
  in
  match find_slot group_exprs e with
  | Some i -> Plan.CCol i
  | None ->
    (match find_slot agg_exprs e with
     | Some j -> Plan.CCol (List.length group_exprs + j)
     | None ->
       (match e with
        | Lit v -> CLit v
        | Col { table; column } ->
          (* a bare column not in GROUP BY: maybe an outer reference *)
          (match scope_find env.scope ~table ~column with
           | Some _ ->
             error "column %s must appear in GROUP BY or an aggregate" column
           | None -> resolve env ~table ~column)
        | Binop (op, a, b) ->
          CBinop (op, compile_post_agg env ~group_exprs ~agg_exprs a,
                  compile_post_agg env ~group_exprs ~agg_exprs b)
        | Unop (op, a) -> CUnop (op, compile_post_agg env ~group_exprs ~agg_exprs a)
        | Fn (name, args) ->
          CFn (name, List.map (compile_post_agg env ~group_exprs ~agg_exprs) args)
        | Like { subject; pattern; escape; negated } ->
          CLike { subject = compile_post_agg env ~group_exprs ~agg_exprs subject;
                  pattern = compile_post_agg env ~group_exprs ~agg_exprs pattern;
                  escape = Option.map (compile_post_agg env ~group_exprs ~agg_exprs) escape;
                  negated }
        | In_list { subject; candidates; negated } ->
          CIn_list
            { subject = compile_post_agg env ~group_exprs ~agg_exprs subject;
              candidates = List.map (compile_post_agg env ~group_exprs ~agg_exprs) candidates;
              negated }
        | Is_null { subject; negated } ->
          CIs_null { subject = compile_post_agg env ~group_exprs ~agg_exprs subject; negated }
        | Between { subject; low; high; negated } ->
          CBetween
            { subject = compile_post_agg env ~group_exprs ~agg_exprs subject;
              low = compile_post_agg env ~group_exprs ~agg_exprs low;
              high = compile_post_agg env ~group_exprs ~agg_exprs high;
              negated }
        | Case { branches; else_ } ->
          CCase
            { branches =
                List.map
                  (fun (c, r) ->
                    (compile_post_agg env ~group_exprs ~agg_exprs c,
                     compile_post_agg env ~group_exprs ~agg_exprs r))
                  branches;
              else_ = Option.map (compile_post_agg env ~group_exprs ~agg_exprs) else_ }
        | Agg _ -> assert false (* caught by find_slot agg_exprs *)
        | In_select _ | Exists _ | Scalar_subquery _ ->
          error "subqueries combined with aggregation are not supported"))

(* ------------------------------------------------------------------ *)
(* SELECT                                                              *)
(* ------------------------------------------------------------------ *)

and output_name i = function
  | Proj (_, Some alias) -> alias
  | Proj (Col { column; _ }, None) -> column
  | Proj (Agg { fn; _ }, None) -> String.lowercase_ascii (agg_fn_to_string fn)
  | Proj (_, None) -> Printf.sprintf "col%d" (i + 1)
  | Star | Table_star _ -> assert false (* expanded before naming *)

and plan_select_in catalog ~outer (sel : select) : planned =
  let base_plan, scope, leftover = plan_from catalog ~outer sel.from sel.where in
  let env = { catalog; scope; outer } in
  (* residual WHERE conjuncts *)
  let base_plan =
    match split_conjunction (List.map (compile env) leftover) with
    | Some f -> Plan.Filter (f, base_plan)
    | None -> base_plan
  in
  (* expand stars *)
  let projections =
    List.concat_map
      (function
        | Star ->
          if Array.length scope = 0 then error "SELECT * with no FROM clause";
          Array.to_list
            (Array.map
               (fun e ->
                 Proj (Col { table = e.qualifier; column = e.name }, Some e.name))
               scope)
        | Table_star t ->
          let t = norm t in
          let cols =
            List.filter (fun e -> e.qualifier = Some t) (Array.to_list scope)
          in
          if cols = [] then error "unknown table %S in %s.*" t t;
          List.map
            (fun e -> Proj (Col { table = e.qualifier; column = e.name }, Some e.name))
            cols
        | Proj _ as p -> [ p ])
      sel.projections
  in
  let proj_exprs = List.map (function Proj (e, _) -> e | _ -> assert false) projections in
  let column_names = List.mapi output_name projections in
  (* aggregation? *)
  let agg_sources =
    proj_exprs
    @ (match sel.having with Some h -> [ h ] | None -> [])
    @ List.map fst sel.order_by
  in
  let aggs = List.fold_left (fun acc e -> collect_aggs e acc) [] agg_sources in
  let is_aggregate = sel.group_by <> [] || aggs <> [] in
  if is_aggregate then begin
    let group_exprs = sel.group_by in
    let cgroups = Array.of_list (List.map (compile env) group_exprs) in
    let cspecs =
      Array.of_list
        (List.map
           (function
             | Agg { fn; arg; distinct } ->
               { Plan.agg_fn = fn; agg_arg = Option.map (compile env) arg;
                 agg_distinct = distinct }
             | _ -> assert false)
           aggs)
    in
    let agg_plan = Plan.Aggregate { group_by = cgroups; aggs = cspecs; input = base_plan } in
    let post env_expr = compile_post_agg env ~group_exprs ~agg_exprs:aggs env_expr in
    let agg_plan =
      match sel.having with
      | Some h -> Plan.Filter (post h, agg_plan)
      | None -> agg_plan
    in
    let cproj = List.map post proj_exprs in
    finalize sel ~column_names ~proj_asts:proj_exprs
      ~compile_output:post
      ~proj:(Array.of_list cproj) ~input:agg_plan
  end
  else begin
    (match sel.having with
     | Some _ -> error "HAVING requires GROUP BY or aggregates"
     | None -> ());
    let cproj = List.map (compile env) proj_exprs in
    finalize sel ~column_names ~proj_asts:proj_exprs
      ~compile_output:(compile env)
      ~proj:(Array.of_list cproj) ~input:base_plan
  end

(* Shared tail: projection, DISTINCT, ORDER BY (with hidden columns),
   LIMIT/OFFSET. [compile_output] compiles an AST expression against the
   pre-projection row. *)
and finalize sel ~column_names ~proj_asts ~compile_output ~proj ~input =
  let nvisible = Array.length proj in
  let out_scope =
    Array.of_list (List.map (fun n -> { qualifier = None; name = n }) column_names)
  in
  (* compile ORDER BY keys: prefer output aliases, else hidden input columns *)
  let hidden = ref [] in
  let sort_keys =
    List.map
      (fun (e, dir) ->
        let against_output () =
          match e with
          | Col { table = None; column } ->
            (match scope_find out_scope ~table:None ~column with
             | Some i -> Some (Plan.CCol i)
             | None -> None)
          | Lit (Value.Int k) when k >= 1 && k <= nvisible ->
            (* ORDER BY ordinal *)
            Some (Plan.CCol (k - 1))
          | _ ->
            (* structural match against a projected expression *)
            let rec find i = function
              | [] -> None
              | pe :: rest -> if pe = e then Some (Plan.CCol i) else find (i + 1) rest
            in
            find 0 proj_asts
        in
        match against_output () with
        | Some c -> (c, dir)
        | None ->
          (* hidden column: compile against the pre-projection row *)
          let c = compile_output e in
          let slot = nvisible + List.length !hidden in
          hidden := !hidden @ [ c ];
          (Plan.CCol slot, dir))
      sel.order_by
  in
  let needs_hidden = !hidden <> [] in
  if needs_hidden && sel.distinct then
    error "ORDER BY on a non-projected expression is not allowed with DISTINCT";
  let full_proj = Array.append proj (Array.of_list !hidden) in
  let plan = Plan.Project (full_proj, input) in
  let plan = if sel.distinct then Plan.Distinct plan else plan in
  let plan =
    if sort_keys = [] then plan
    else Plan.Sort (Array.of_list sort_keys, plan)
  in
  (* strip hidden sort columns *)
  let plan =
    if needs_hidden then
      Plan.Project (Array.init nvisible (fun i -> Plan.CCol i), plan)
    else plan
  in
  let plan =
    match sel.limit, sel.offset with
    | None, None -> plan
    | limit, offset -> Plan.Limit { limit; offset; input = plan }
  in
  { plan; column_names; rewrites = []; est_cost = 0. }

(* The table-algebra rewrite pass runs once over the complete top-level
   plan (the [transform] driver inside [Rewrite] recurses into expression
   subplans itself), so subquery planning stays rewrite-free. *)
let apply_rewrites catalog (p : planned) =
  let plan, rewrites = Rewrite.apply catalog p.plan in
  { p with plan; rewrites }

(* Stamp the finished plan with its root cost estimate — computed after
   rewrites, so the gate judges the plan that will actually run. *)
let with_root_cost catalog (p : planned) =
  let est_cost =
    match Cost.find (Cost.estimate catalog p.plan) p.plan with
    | Some e -> e.Cost.est_cost
    | None -> 0.
  in
  { p with est_cost }

let plan_select catalog sel =
  with_root_cost catalog (apply_rewrites catalog (plan_select_in catalog ~outer:[] sel))

let plan_select_raw catalog sel = (plan_select_in catalog ~outer:[] sel).plan

let plan_query catalog (q : Sql_ast.query) =
  let first = plan_select_in catalog ~outer:[] q.first in
  let arity = List.length first.column_names in
  let branches =
    List.map
      (fun (all, sel) ->
        let p = plan_select_in catalog ~outer:[] sel in
        if List.length p.column_names <> arity then
          error "UNION branches have different arities (%d vs %d)" arity
            (List.length p.column_names);
        (all, p.plan))
      q.unions
  in
  let all_bag = List.for_all fst branches in
  let plan = Plan.Union_all (first.plan :: List.map snd branches) in
  (* plain UNION anywhere in the chain means set semantics for the result *)
  let plan = if all_bag then plan else Plan.Distinct plan in
  with_root_cost catalog
    (apply_rewrites catalog
       { plan; column_names = first.column_names; rewrites = [];
         est_cost = 0. })

let compile_scalar catalog e =
  compile { catalog; scope = [||]; outer = [] } e

let compile_row_predicate catalog schema e =
  let scope =
    Array.of_list
      (List.map
         (fun c -> { qualifier = Some (norm schema.Schema.table_name); name = c })
         (Schema.column_names schema))
  in
  compile { catalog; scope; outer = [] } e
