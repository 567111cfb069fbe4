(* Cardinality and cost estimation over physical plans.

   Runs as a separate pass after planning: it walks a [Plan.t] bottom-up,
   tracking for every output slot which base-table column it carries
   (provenance), so compiled [CCol] slots can be mapped back to the
   column statistics collected by ANALYZE. The resulting per-node
   estimates drive the EXPLAIN annotations; EXPLAIN ANALYZE prints them
   side by side with the observed row counts.

   The cost unit is abstract "rows touched": a sequential scan costs its
   input cardinality, an index probe costs log2 of the entry count plus
   the matched rows, and joins compose costs the way the executor runs
   them (the nested-loop right side is re-executed per left row). *)

type est = { est_rows : float; est_cost : float }

type estimates = (Plan.t * est) list
(* keyed by physical identity, like Obs profiles *)

(* provenance: for each slot of a node's output row, the base
   (table, column) it carries, when known; both lowercase *)
type prov = (string * string) option array

let find ests node =
  let rec go = function
    | [] -> None
    | (n, e) :: tl -> if n == node then Some e else go tl
  in
  go ests

let clamp_sel s = Float.max 1e-4 (Float.min 1.0 s)

let log2 x = Float.log x /. Float.log 2.

(* Below this combined input size the merge join's key sorts are in the
   noise; charging them would push tiny (paper-figure scale) plans off
   the merge path for no measurable gain. *)
let structural_sort_floor = 256.

let structural_sort_cost nl nr =
  if nl +. nr < structural_sort_floor then 0.
  else
    let f n = if n <= 1. then 0. else n *. log2 n in
    f nl +. f nr

let rec col_of = function
  | Plan.CCol i -> Some i
  | Plan.CFn (_, [ e ]) -> col_of e  (* LOWER(col) etc. preserve distribution *)
  | _ -> None

let lit_of = function Plan.CLit v -> Some v | _ -> None

(* no reference to the current row: literals, correlated params, scalars *)
let rec const_ish = function
  | Plan.CCol _ -> false
  | Plan.CLit _ | Plan.CParam _ | Plan.CScalar_plan _ -> true
  | Plan.CBinop (_, a, b) -> const_ish a && const_ish b
  | Plan.CUnop (_, a) -> const_ish a
  | Plan.CFn (_, args) -> List.for_all const_ish args
  | _ -> false

let rec conjuncts = function
  | Plan.CBinop (Sql_ast.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let estimate cat plan =
  let acc = ref [] in
  let note node e = acc := (node, e) :: !acc in
  let stats_of (prov : prov) i =
    if i < 0 || i >= Array.length prov then None
    else
      match prov.(i) with
      | None -> None
      | Some (t, c) ->
        (match Catalog.find_stats cat t with
         | None -> None
         | Some ts -> Stats.find_column ts c)
  in
  let distinct_of prov e =
    match col_of e with
    | None -> None
    | Some i ->
      (match stats_of prov i with
       | Some cs when cs.Stats.n_distinct > 0 -> Some cs.Stats.n_distinct
       | _ -> None)
  in
  let eq_sel prov e =
    match col_of e with
    | Some i ->
      (match stats_of prov i with
       | Some cs -> Stats.eq_selectivity cs
       | None -> Stats.default_eq)
    | None -> Stats.default_eq
  in
  (* selectivity of one conjunct against a row with provenance [prov] *)
  let rec sel prov e =
    clamp_sel
      (match e with
       | Plan.CBinop (Sql_ast.Eq, a, b) ->
         (match col_of a, col_of b with
          | Some i, Some j ->
            (match stats_of prov i, stats_of prov j with
             | Some c1, Some c2 ->
               1. /. float_of_int (max 1 (max c1.Stats.n_distinct c2.Stats.n_distinct))
             | Some c, None | None, Some c ->
               1. /. float_of_int (max 1 c.Stats.n_distinct)
             | None, None -> Stats.default_eq)
          | Some _, None when const_ish b -> eq_sel prov a
          | None, Some _ when const_ish a -> eq_sel prov b
          | _ -> Stats.default_eq)
       | Plan.CBinop (Sql_ast.Neq, a, b) ->
         1. -. sel prov (Plan.CBinop (Sql_ast.Eq, a, b))
       | Plan.CBinop ((Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge) as op, a, b)
         ->
         let directional col_e lit_e ~col_on_left =
           match col_of col_e, lit_of lit_e with
           | Some i, Some v ->
             (match stats_of prov i with
              | Some cs ->
                let le = Stats.le_fraction cs v in
                let col_le =
                  (* is the predicate "col <= v"-shaped after normalising? *)
                  match op, col_on_left with
                  | (Sql_ast.Lt | Sql_ast.Le), true -> true
                  | (Sql_ast.Gt | Sql_ast.Ge), true -> false
                  | (Sql_ast.Lt | Sql_ast.Le), false -> false
                  | (Sql_ast.Gt | Sql_ast.Ge), false -> true
                  | _ -> true
                in
                if col_le then le else Float.max 0. (1. -. cs.Stats.null_frac -. le)
              | None -> Stats.default_range)
           | _ -> Stats.default_range
         in
         if col_of a <> None && const_ish b then directional a b ~col_on_left:true
         else if col_of b <> None && const_ish a then directional b a ~col_on_left:false
         else Stats.default_range
       | Plan.CBetween { subject; low; high; negated } ->
         let s =
           match col_of subject, lit_of low, lit_of high with
           | Some i, lo, hi when lo <> None || hi <> None ->
             (match stats_of prov i with
              | Some cs ->
                Stats.range_selectivity cs
                  ~lo:(Option.map (fun v -> (v, true)) lo)
                  ~hi:(Option.map (fun v -> (v, true)) hi)
              | None -> Stats.default_range)
           | _ -> Stats.default_range
         in
         if negated then 1. -. s else s
       | Plan.CLike { negated; _ } ->
         if negated then 1. -. Stats.default_like else Stats.default_like
       | Plan.CIs_null { subject; negated } ->
         (match col_of subject with
          | Some i ->
            (match stats_of prov i with
             | Some cs -> Stats.null_selectivity cs ~negated
             | None -> if negated then 0.9 else 0.1)
          | None -> if negated then 0.9 else 0.1)
       | Plan.CIn_list { subject; candidates; negated } ->
         let s =
           Float.min Stats.default_other
             (float_of_int (List.length candidates) *. eq_sel prov subject)
         in
         if negated then 1. -. s else s
       | Plan.CBinop (Sql_ast.Or, a, b) ->
         let sa = sel prov a and sb = sel prov b in
         sa +. sb -. (sa *. sb)
       | Plan.CBinop (Sql_ast.And, a, b) -> sel prov a *. sel prov b
       | Plan.CUnop (Sql_ast.Not, a) -> 1. -. sel prov a
       | Plan.CIn_plan _ | Plan.CExists_plan _ -> Stats.default_other
       | Plan.CLit (Value.Bool true) -> 1.0
       | Plan.CLit (Value.Bool false) -> 1e-4
       | _ -> Stats.default_other)
  in
  let filter_sel prov = function
    | None -> 1.0
    | Some f -> List.fold_left (fun s c -> s *. sel prov c) 1.0 (conjuncts f)
  in
  let table_info name =
    match Catalog.find_table cat name with
    | Some tbl ->
      let tname = Catalog.normalize name in
      let prov =
        Array.of_list
          (List.map
             (fun c -> Some (tname, String.lowercase_ascii c))
             (Schema.column_names (Table.schema tbl)))
      in
      (float_of_int (Table.row_count tbl), prov, Some tbl)
    | None -> (1000., [||], None)
  in
  let rec go node : est * prov =
    let note_exprs es =
      List.iter (fun e -> List.iter (fun p -> ignore (go p)) (Plan.subplans_of e)) es
    in
    let opt l = function Some e -> e :: l | None -> l in
    let e, prov =
      match node with
      | Plan.Single_row -> ({ est_rows = 1.; est_cost = 0. }, [||])
      | Plan.Seq_scan { table; filter } ->
        let rows_t, prov, _ = table_info table in
        note_exprs (opt [] filter);
        ( { est_rows = rows_t *. filter_sel prov filter;
            est_cost = rows_t +. 1. },
          prov )
      | Plan.Index_lookup { table; index; key; filter } ->
        let rows_t, prov, tbl = table_info table in
        note_exprs (opt (Array.to_list key) filter);
        let matched =
          match Option.bind tbl (fun t -> Table.find_index t index) with
          | Some idx ->
            if Index.is_unique idx then 1.
            else rows_t /. float_of_int (max 1 (Index.cardinality idx))
          | None -> rows_t *. Stats.default_eq
        in
        let probe_cost =
          match Option.bind tbl (fun t -> Table.find_index t index) with
          | Some idx -> log2 (float_of_int (Index.entry_count idx) +. 2.)
          | None -> 1.
        in
        ( { est_rows = matched *. filter_sel prov filter;
            est_cost = probe_cost +. matched },
          prov )
      | Plan.Index_range { table; index; lo; hi; filter } ->
        let rows_t, prov, tbl = table_info table in
        let bound_exprs = function
          | Some (arr, _) -> Array.to_list arr
          | None -> []
        in
        note_exprs (opt (bound_exprs lo @ bound_exprs hi) filter);
        let bound_val = function
          | Some (arr, incl) when Array.length arr > 0 ->
            Option.map (fun v -> (v, incl)) (lit_of arr.(0))
          | _ -> None
        in
        let frac =
          match Option.bind tbl (fun t -> Table.find_index t index) with
          | Some idx ->
            (match Index.columns idx with
             | col :: _ ->
               (match
                  Option.bind
                    (Catalog.find_stats cat (Catalog.normalize table))
                    (fun ts -> Stats.find_column ts col)
                with
                | Some cs
                  when (lo = None || bound_val lo <> None)
                       && (hi = None || bound_val hi <> None) ->
                  Stats.range_selectivity cs ~lo:(bound_val lo) ~hi:(bound_val hi)
                | _ -> Stats.default_range)
             | [] -> Stats.default_range)
          | None -> Stats.default_range
        in
        let matched = rows_t *. frac in
        let probe_cost =
          match Option.bind tbl (fun t -> Table.find_index t index) with
          | Some idx -> log2 (float_of_int (Index.entry_count idx) +. 2.)
          | None -> 1.
        in
        ( { est_rows = matched *. filter_sel prov filter;
            est_cost = probe_cost +. matched },
          prov )
      | Plan.Filter (f, input) ->
        let ei, prov = go input in
        note_exprs [ f ];
        ( { est_rows = ei.est_rows *. filter_sel prov (Some f);
            est_cost = ei.est_cost +. (0.1 *. ei.est_rows) },
          prov )
      | Plan.Project (es, input) ->
        let ei, prov_in = go input in
        note_exprs (Array.to_list es);
        let prov =
          Array.map
            (fun e ->
              match e with
              | Plan.CCol i when i >= 0 && i < Array.length prov_in -> prov_in.(i)
              | _ -> None)
            es
        in
        ({ est_rows = ei.est_rows; est_cost = ei.est_cost +. (0.01 *. ei.est_rows) }, prov)
      | Plan.Nested_loop_join { left; right; cond; left_outer; _ } ->
        let el, pl = go left in
        let er, pr = go right in
        let prov = Array.append pl pr in
        note_exprs (opt [] cond);
        let rows = el.est_rows *. er.est_rows *. filter_sel prov cond in
        let rows = if left_outer then Float.max rows el.est_rows else rows in
        ( { est_rows = rows;
            (* the executor re-runs the right side once per left row *)
            est_cost =
              el.est_cost
              +. (Float.max 1. el.est_rows *. er.est_cost)
              +. (0.01 *. el.est_rows *. er.est_rows) },
          prov )
      | Plan.Hash_join { left; right; left_keys; right_keys; cond; left_outer; _ } ->
        let el, pl = go left in
        let er, pr = go right in
        let prov = Array.append pl pr in
        note_exprs (Array.to_list left_keys @ Array.to_list right_keys @ opt [] cond);
        let key_sels =
          List.filter_map
            (fun (lk, rk) ->
              match distinct_of pl lk, distinct_of pr rk with
              | Some d1, Some d2 -> Some (1. /. float_of_int (max d1 d2))
              | Some d, None | None, Some d -> Some (1. /. float_of_int d)
              | None, None -> None)
            (List.combine (Array.to_list left_keys) (Array.to_list right_keys))
        in
        let join_sel =
          match key_sels with
          | [] ->
            (* no statistics: assume a key/foreign-key join *)
            1. /. Float.max 1. (Float.max el.est_rows er.est_rows)
          | ss -> List.fold_left ( *. ) 1.0 ss
        in
        let rows =
          el.est_rows *. er.est_rows *. join_sel *. filter_sel prov cond
        in
        let rows = if left_outer then Float.max rows el.est_rows else rows in
        ( { est_rows = rows;
            est_cost = el.est_cost +. er.est_cost +. el.est_rows +. er.est_rows },
          prov )
      | Plan.Sort (keys, input) ->
        let ei, prov = go input in
        note_exprs (List.map fst (Array.to_list keys));
        let n = Float.max 1. ei.est_rows in
        ({ est_rows = ei.est_rows; est_cost = ei.est_cost +. (n *. log2 (n +. 2.)) }, prov)
      | Plan.Aggregate { group_by; aggs; input } ->
        let ei, prov_in = go input in
        note_exprs
          (Array.to_list group_by
          @ List.filter_map (fun a -> a.Plan.agg_arg) (Array.to_list aggs));
        let groups =
          if Array.length group_by = 0 then 1.
          else begin
            let g =
              Array.fold_left
                (fun acc e ->
                  match distinct_of prov_in e with
                  | Some d -> acc *. float_of_int d
                  | None -> acc *. 10.)
                1.0 group_by
            in
            Float.max 1. (Float.min g ei.est_rows)
          end
        in
        let prov =
          Array.append
            (Array.map
               (fun e ->
                 match e with
                 | Plan.CCol i when i >= 0 && i < Array.length prov_in -> prov_in.(i)
                 | _ -> None)
               group_by)
            (Array.make (Array.length aggs) None)
        in
        ({ est_rows = groups; est_cost = ei.est_cost +. ei.est_rows }, prov)
      | Plan.Distinct input ->
        let ei, prov = go input in
        ({ est_rows = ei.est_rows; est_cost = ei.est_cost +. ei.est_rows }, prov)
      | Plan.Union_all inputs ->
        let parts = List.map go inputs in
        let rows = List.fold_left (fun a (e, _) -> a +. e.est_rows) 0. parts in
        let cost = List.fold_left (fun a (e, _) -> a +. e.est_cost) 0. parts in
        let prov = match parts with (_, p) :: _ -> p | [] -> [||] in
        ({ est_rows = rows; est_cost = cost }, prov)
      | Plan.Limit { limit; offset; input } ->
        let ei, prov = go input in
        let after_offset =
          Float.max 0. (ei.est_rows -. float_of_int (Option.value offset ~default:0))
        in
        let rows =
          match limit with
          | Some n -> Float.min (float_of_int n) after_offset
          | None -> after_offset
        in
        ({ est_rows = rows; est_cost = ei.est_cost }, prov)
      | Plan.Structural_join
          { left; right; interval_on_left = _; left_doc; right_doc; lo; hi; pos;
            cond; _ } ->
        let el, pl = go left in
        let er, pr = go right in
        let prov = Array.append pl pr in
        note_exprs (left_doc :: right_doc :: lo :: hi :: pos :: opt [] cond);
        let doc_sel =
          match distinct_of pl left_doc, distinct_of pr right_doc with
          | Some d1, Some d2 -> 1. /. float_of_int (max 1 (max d1 d2))
          | Some d, None | None, Some d -> 1. /. float_of_int (max 1 d)
          | None, None ->
            (* no statistics: assume a key/foreign-key document join *)
            1. /. Float.max 1. (Float.max el.est_rows er.est_rows)
        in
        (* the two bound comparisons prune like the 0.5-per-conjunct
           filter the equivalent hash plan would apply *)
        let containment = 0.25 in
        let rows =
          el.est_rows *. er.est_rows *. doc_sel *. containment
          *. filter_sel prov cond
        in
        let nl = Float.max 1. el.est_rows and nr = Float.max 1. er.est_rows in
        ( { est_rows = rows;
            (* materialise + (sort fallback) + one merge pass + output *)
            est_cost =
              el.est_cost +. er.est_cost
              +. (nl *. log2 (nl +. 2.)) +. (nr *. log2 (nr +. 2.))
              +. rows },
          prov )
    in
    note node e;
    (e, prov)
  in
  ignore (go plan);
  List.rev !acc

let annotation ests node =
  match find ests node with
  | None -> ""
  | Some e -> Printf.sprintf " (est_rows=%.1f cost=%.1f)" e.est_rows e.est_cost

let annotate cat plan =
  let ests = estimate cat plan in
  Plan.to_string ~annot:(annotation ests) plan
