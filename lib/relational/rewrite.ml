(* Table-algebra rewrites for the batch executor. See rewrite.mli for
   the rule catalog and the safety rules around subplans. *)

open Plan

type report = (string * int) list

let rule_names =
  [ "sort-elim"; "filter-pushdown"; "filter-merge"; "prune"; "proj-fuse" ]

(* ------------------------------------------------------------------ *)
(* Expression analysis                                                 *)
(* ------------------------------------------------------------------ *)

(* Column slots an expression reads from the current row, with
   duplicates, in reading order. Subplan bodies are skipped: their CCols
   index the subplan's own rows. *)
let col_occurrences (e : cexpr) : int list =
  let acc = ref [] in
  let rec go = function
    | CLit _ | CParam _ -> ()
    | CCol i -> acc := i :: !acc
    | CBinop (_, a, b) -> go a; go b
    | CUnop (_, a) -> go a
    | CFn (_, args) -> List.iter go args
    | CLike { subject; pattern; escape; _ } ->
      go subject; go pattern; Option.iter go escape
    | CIn_list { subject; candidates; _ } -> go subject; List.iter go candidates
    | CIs_null { subject; _ } -> go subject
    | CBetween { subject; low; high; _ } -> go subject; go low; go high
    | CCase { branches; else_ } ->
      List.iter (fun (c, r) -> go c; go r) branches;
      Option.iter go else_
    | CIn_plan { subject; _ } -> go subject
    | CExists_plan _ | CScalar_plan _ -> ()
  in
  go e;
  List.rev !acc

let cols_of e = List.sort_uniq compare (col_occurrences e)

let rec has_subplan = function
  | CLit _ | CCol _ | CParam _ -> false
  | CBinop (_, a, b) -> has_subplan a || has_subplan b
  | CUnop (_, a) -> has_subplan a
  | CFn (_, args) -> List.exists has_subplan args
  | CLike { subject; pattern; escape; _ } ->
    has_subplan subject || has_subplan pattern
    || (match escape with Some e -> has_subplan e | None -> false)
  | CIn_list { subject; candidates; _ } ->
    has_subplan subject || List.exists has_subplan candidates
  | CIs_null { subject; _ } -> has_subplan subject
  | CBetween { subject; low; high; _ } ->
    has_subplan subject || has_subplan low || has_subplan high
  | CCase { branches; else_ } ->
    List.exists (fun (c, r) -> has_subplan c || has_subplan r) branches
    || (match else_ with Some e -> has_subplan e | None -> false)
  | CIn_plan _ | CExists_plan _ | CScalar_plan _ -> true

(* Rename the CCol slots of an expression (which must be subplan-free
   when [f] is not the identity; callers guarantee this). *)
let rec map_cols f (e : cexpr) : cexpr =
  match e with
  | CLit v -> CLit v
  | CCol i -> CCol (f i)
  | CParam i -> CParam i
  | CBinop (op, a, b) -> CBinop (op, map_cols f a, map_cols f b)
  | CUnop (op, a) -> CUnop (op, map_cols f a)
  | CFn (name, args) -> CFn (name, List.map (map_cols f) args)
  | CLike { subject; pattern; escape; negated } ->
    CLike
      { subject = map_cols f subject; pattern = map_cols f pattern;
        escape = Option.map (map_cols f) escape; negated }
  | CIn_list { subject; candidates; negated } ->
    CIn_list
      { subject = map_cols f subject;
        candidates = List.map (map_cols f) candidates; negated }
  | CIs_null { subject; negated } ->
    CIs_null { subject = map_cols f subject; negated }
  | CBetween { subject; low; high; negated } ->
    CBetween
      { subject = map_cols f subject; low = map_cols f low;
        high = map_cols f high; negated }
  | CCase { branches; else_ } ->
    CCase
      { branches = List.map (fun (c, r) -> (map_cols f c, map_cols f r)) branches;
        else_ = Option.map (map_cols f) else_ }
  | CIn_plan { subject; plan; negated } ->
    CIn_plan { subject = map_cols f subject; plan = copy_plan plan; negated }
  | CExists_plan { plan; negated } -> CExists_plan { plan = copy_plan plan; negated }
  | CScalar_plan plan -> CScalar_plan (copy_plan plan)

(* Can this projection expression be dropped (or not) without changing
   observable behavior? Only constructs whose evaluation never raises
   qualify: arithmetic, functions, LIKE-with-escape and subplans can all
   raise Runtime_error, so an unused-but-risky expression must stay. *)
let rec droppable = function
  | CLit _ | CCol _ | CParam _ -> true
  | CBinop ((Sql_ast.And | Sql_ast.Or | Sql_ast.Eq | Sql_ast.Neq
            | Sql_ast.Lt | Sql_ast.Le | Sql_ast.Gt | Sql_ast.Ge), a, b) ->
    droppable a && droppable b
  | CBinop (_, _, _) -> false
  | CUnop (Sql_ast.Not, a) -> droppable a
  | CUnop (Sql_ast.Neg, _) -> false
  | CFn _ -> false
  | CLike { subject; pattern; escape = None; negated = _ } ->
    droppable subject && droppable pattern
  | CLike _ -> false
  | CIn_list { subject; candidates; _ } ->
    droppable subject && List.for_all droppable candidates
  | CIs_null { subject; _ } -> droppable subject
  | CBetween { subject; low; high; _ } ->
    droppable subject && droppable low && droppable high
  | CCase { branches; else_ } ->
    List.for_all (fun (c, r) -> droppable c && droppable r) branches
    && (match else_ with Some e -> droppable e | None -> true)
  | CIn_plan _ | CExists_plan _ | CScalar_plan _ -> false

let rec conjuncts = function
  | CBinop (Sql_ast.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let rec conjoin = function
  | [] -> CLit (Value.Bool true)
  | [ e ] -> e
  | e :: rest -> CBinop (Sql_ast.And, e, conjoin rest)

(* ------------------------------------------------------------------ *)
(* Generic traversal                                                   *)
(* ------------------------------------------------------------------ *)

type sub_kind = Sub_in | Sub_exists | Sub_scalar

(* Rewrite the subplan bodies embedded in an expression. *)
let rec map_subplans (fplan : sub_kind -> Plan.t -> Plan.t) (e : cexpr) : cexpr =
  let self = map_subplans fplan in
  match e with
  | CLit _ | CCol _ | CParam _ -> e
  | CBinop (op, a, b) -> CBinop (op, self a, self b)
  | CUnop (op, a) -> CUnop (op, self a)
  | CFn (name, args) -> CFn (name, List.map self args)
  | CLike { subject; pattern; escape; negated } ->
    CLike
      { subject = self subject; pattern = self pattern;
        escape = Option.map self escape; negated }
  | CIn_list { subject; candidates; negated } ->
    CIn_list { subject = self subject; candidates = List.map self candidates; negated }
  | CIs_null { subject; negated } -> CIs_null { subject = self subject; negated }
  | CBetween { subject; low; high; negated } ->
    CBetween { subject = self subject; low = self low; high = self high; negated }
  | CCase { branches; else_ } ->
    CCase
      { branches = List.map (fun (c, r) -> (self c, self r)) branches;
        else_ = Option.map self else_ }
  | CIn_plan { subject; plan; negated } ->
    CIn_plan { subject = self subject; plan = fplan Sub_in plan; negated }
  | CExists_plan { plan; negated } ->
    CExists_plan { plan = fplan Sub_exists plan; negated }
  | CScalar_plan plan -> CScalar_plan (fplan Sub_scalar plan)

(* Bottom-up rebuild: children and embedded subplans are rewritten
   first, then [fnode] sees the rebuilt node. [sub_root] additionally
   transforms each embedded subplan's root (used by sort-elim). Every
   node is reallocated, preserving the one-physical-occurrence invariant
   the profiler relies on. *)
let rec transform ?(sub_root = fun _ p -> p) (fnode : Plan.t -> Plan.t) (p : Plan.t) :
    Plan.t =
  let self p = transform ~sub_root fnode p in
  let fe e = map_subplans (fun kind sp -> sub_root kind (self sp)) e in
  let fo = Option.map fe in
  let p' =
    match p with
    | Single_row -> Single_row
    | Seq_scan { table; filter; part } -> Seq_scan { table; filter = fo filter; part }
    | Index_lookup { table; index; key; filter } ->
      Index_lookup { table; index; key = Array.map fe key; filter = fo filter }
    | Index_range { table; index; lo; hi; filter } ->
      let bound = Option.map (fun (k, incl) -> (Array.map fe k, incl)) in
      Index_range { table; index; lo = bound lo; hi = bound hi; filter = fo filter }
    | Filter (f, input) -> Filter (fe f, self input)
    | Project (es, input) -> Project (Array.map fe es, self input)
    | Nested_loop_join { left; right; cond; left_outer; right_arity } ->
      Nested_loop_join
        { left = self left; right = self right; cond = fo cond; left_outer;
          right_arity }
    | Hash_join { left; right; left_keys; right_keys; cond; left_outer; right_arity } ->
      Hash_join
        { left = self left; right = self right;
          left_keys = Array.map fe left_keys;
          right_keys = Array.map fe right_keys; cond = fo cond; left_outer;
          right_arity }
    | Sort (keys, input) ->
      Sort (Array.map (fun (e, d) -> (fe e, d)) keys, self input)
    | Aggregate { group_by; aggs; input } ->
      Aggregate
        { group_by = Array.map fe group_by;
          aggs = Array.map (fun a -> { a with agg_arg = Option.map fe a.agg_arg }) aggs;
          input = self input }
    | Distinct input -> Distinct (self input)
    | Union_all inputs -> Union_all (List.map self inputs)
    | Limit { limit; offset; input } -> Limit { limit; offset; input = self input }
    | Exchange { inputs; workers } -> Exchange { inputs = List.map self inputs; workers }
    | Structural_join
        { left; right; interval_on_left; left_doc; right_doc; lo; hi; pos;
          lo_incl; hi_incl; cond; right_arity } ->
      Structural_join
        { left = self left; right = self right; interval_on_left;
          left_doc = fe left_doc; right_doc = fe right_doc; lo = fe lo;
          hi = fe hi; pos = fe pos; lo_incl; hi_incl; cond = fo cond;
          right_arity }
  in
  fnode p'

(* Output width of a plan, from the catalog. [None] when a scanned table
   is unknown (rules that need widths then leave the plan alone). *)
let rec arity_of cat (p : Plan.t) : int option =
  match p with
  | Single_row -> Some 0
  | Seq_scan { table; _ } | Index_lookup { table; _ } | Index_range { table; _ } -> (
      match Catalog.find_table cat table with
      | Some t -> Some (Schema.arity (Table.schema t))
      | None -> None)
  | Filter (_, i) | Sort (_, i) | Distinct i | Limit { input = i; _ } -> arity_of cat i
  | Project (es, _) -> Some (Array.length es)
  | Nested_loop_join { left; right_arity; _ }
  | Hash_join { left; right_arity; _ }
  | Structural_join { left; right_arity; _ } ->
    Option.map (fun la -> la + right_arity) (arity_of cat left)
  | Aggregate { group_by; aggs; _ } ->
    Some (Array.length group_by + Array.length aggs)
  | Union_all [] | Exchange { inputs = []; _ } -> None
  | Union_all (i :: _) | Exchange { inputs = i :: _; _ } -> arity_of cat i

(* ------------------------------------------------------------------ *)
(* Rule: sort-elim                                                     *)
(* ------------------------------------------------------------------ *)

(* Peel Sorts visible through row-wise operators (Project/Filter) and
   Distinct, in a context where the consumer ignores row order. Stops at
   Limit: a Sort under LIMIT/OFFSET selects *which* rows survive. *)
let rec peel_sorts fires p =
  match p with
  | Sort (_, i) -> incr fires; peel_sorts fires i
  | Project (es, i) -> Project (es, peel_sorts fires i)
  | Filter (f, i) -> Filter (f, peel_sorts fires i)
  | Distinct i -> Distinct (peel_sorts fires i)
  | p -> p

(* Order-insensitive aggregate functions. SUM/AVG stay ordered: float
   accumulation is not associative, and the differential wall demands
   byte-identical output. *)
let order_insensitive_agg (a : agg_spec) =
  match a.agg_fn with
  | Sql_ast.Count | Sql_ast.Min | Sql_ast.Max -> true
  | Sql_ast.Sum | Sql_ast.Avg -> false

let sort_elim _cat plan =
  let fires = ref 0 in
  (* IN membership and EXISTS are set-queries; a scalar subplan yields at
     most one row (more is a runtime error either way). A *grouped*
     aggregate is order-sensitive — its output lists groups in
     first-seen order — but a global one emits a single row. *)
  let sub_root _kind p = peel_sorts fires p in
  let fnode = function
    | Aggregate { group_by = [||]; aggs; input }
      when Array.for_all order_insensitive_agg aggs ->
      Aggregate { group_by = [||]; aggs; input = peel_sorts fires input }
    | p -> p
  in
  let plan = transform ~sub_root fnode plan in
  (plan, !fires)

(* ------------------------------------------------------------------ *)
(* Rule: filter-pushdown                                               *)
(* ------------------------------------------------------------------ *)

(* Split the conjuncts of a Filter sitting on an inner join and push the
   single-side ones below it. Conjuncts with subplans never move: the
   rows a subplan's CParams are numbered against would change. For a
   left-outer join only the left side accepts pushes (a right-side
   predicate above the join also filters NULL-extended rows). *)
let filter_pushdown cat plan =
  let fires = ref 0 in
  let push_sides ~left ~right ~left_outer ~rebuild f =
    match arity_of cat left with
    | None -> None
    | Some la ->
      let cs = conjuncts f in
      let lefts, rights, keep =
        List.fold_left
          (fun (l, r, k) c ->
            if has_subplan c then (l, r, c :: k)
            else
              let cols = cols_of c in
              if List.for_all (fun i -> i < la) cols then (c :: l, r, k)
              else if (not left_outer) && List.for_all (fun i -> i >= la) cols
              then (l, c :: r, k)
              else (l, r, c :: k))
          ([], [], []) cs
      in
      let lefts = List.rev lefts and rights = List.rev rights
      and keep = List.rev keep in
      if lefts = [] && rights = [] then None
      else begin
        fires := !fires + List.length lefts + List.length rights;
        let left =
          if lefts = [] then left else Filter (conjoin lefts, left)
        in
        let right =
          if rights = [] then right
          else
            Filter (conjoin (List.map (map_cols (fun i -> i - la)) rights), right)
        in
        let j = rebuild left right in
        Some (if keep = [] then j else Filter (conjoin keep, j))
      end
  in
  let fnode = function
    | Filter (f, Nested_loop_join ({ left_outer = false; _ } as j)) as p ->
      (match
         push_sides ~left:j.left ~right:j.right ~left_outer:false
           ~rebuild:(fun left right -> Nested_loop_join { j with left; right })
           f
       with
      | Some p' -> p'
      | None -> p)
    | Filter (f, Nested_loop_join ({ left_outer = true; _ } as j)) as p ->
      (match
         push_sides ~left:j.left ~right:j.right ~left_outer:true
           ~rebuild:(fun left right -> Nested_loop_join { j with left; right })
           f
       with
      | Some p' -> p'
      | None -> p)
    | Filter (f, Hash_join ({ left_outer = false; _ } as j)) as p ->
      (match
         push_sides ~left:j.left ~right:j.right ~left_outer:false
           ~rebuild:(fun left right -> Hash_join { j with left; right })
           f
       with
      | Some p' -> p'
      | None -> p)
    | Filter (f, Hash_join ({ left_outer = true; _ } as j)) as p ->
      (match
         push_sides ~left:j.left ~right:j.right ~left_outer:true
           ~rebuild:(fun left right -> Hash_join { j with left; right })
           f
       with
      | Some p' -> p'
      | None -> p)
    | Filter (f, Structural_join j) as p ->
      (match
         push_sides ~left:j.left ~right:j.right ~left_outer:false
           ~rebuild:(fun left right -> Structural_join { j with left; right })
           f
       with
      | Some p' -> p'
      | None -> p)
    | p -> p
  in
  (* Two bottom-up passes: the first can stack a pushed Filter directly
     onto a lower join that the same pass has already visited. *)
  let plan = transform fnode (transform fnode plan) in
  (plan, !fires)

(* ------------------------------------------------------------------ *)
(* Rule: filter-merge                                                  *)
(* ------------------------------------------------------------------ *)

(* AND the pushed predicate after the scan's own filter; 3VL truthiness
   distributes over AND, so filtering once on the conjunction equals
   filtering twice. *)
let merge_pred f = function
  | None -> Some f
  | Some g -> Some (CBinop (Sql_ast.And, g, f))

let filter_merge _cat plan =
  let fires = ref 0 in
  (* A scan filter is evaluated against the full base-table row — the
     same shape the Filter above sees — so even subplan-bearing
     predicates merge safely. *)
  let into_partition f p =
    match p with
    | Seq_scan s -> Seq_scan { s with filter = merge_pred (copy_cexpr f) s.filter }
    | Index_lookup s ->
      Index_lookup { s with filter = merge_pred (copy_cexpr f) s.filter }
    | Index_range s ->
      Index_range { s with filter = merge_pred (copy_cexpr f) s.filter }
    | p -> Filter (copy_cexpr f, p)
  in
  let fnode = function
    | Filter (f, Seq_scan s) ->
      incr fires;
      Seq_scan { s with filter = merge_pred f s.filter }
    | Filter (f, Index_lookup s) ->
      incr fires;
      Index_lookup { s with filter = merge_pred f s.filter }
    | Filter (f, Index_range s) ->
      incr fires;
      Index_range { s with filter = merge_pred f s.filter }
    | Filter (f, Filter (g, i)) ->
      incr fires;
      Filter (CBinop (Sql_ast.And, g, f), i)
    | Filter (f, Exchange { inputs; workers }) ->
      incr fires;
      Exchange { inputs = List.map (into_partition f) inputs; workers }
    | p -> p
  in
  let plan = transform fnode plan in
  (plan, !fires)

(* ------------------------------------------------------------------ *)
(* Rule: prune (projection pushdown)                                   *)
(* ------------------------------------------------------------------ *)

module IntSet = Set.Make (Int)

type need = All | Cols of IntSet.t

let need_union a b =
  match (a, b) with
  | All, _ | _, All -> All
  | Cols x, Cols y -> Cols (IntSet.union x y)

let need_of_exprs es =
  Array.fold_left
    (fun n e ->
      if has_subplan e then All
      else need_union n (Cols (IntSet.of_list (cols_of e))))
    (Cols IntSet.empty) es

(* [prune] walks top-down carrying the set of output columns the
   ancestors consume; whenever a scan's output is wider than that set it
   inserts a narrowing Project over the scan (inside Exchange
   partitions, so the parallel-build pattern matches in the executor
   still fire) and renumbers every expression above. [go p need] returns
   [(p', kept)] where [kept] lists the original output slots [p'] still
   produces, ascending; [kept ⊇ need], and [need = All] forces [kept] to
   be the full identity. *)
let prune cat plan =
  let fires = ref 0 in
  let identity n = List.init n (fun i -> i) in
  let remap_with kept e =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun idx c -> Hashtbl.replace tbl c idx) kept;
    map_cols
      (fun c ->
        match Hashtbl.find_opt tbl c with
        | Some idx -> idx
        | None -> failwith "rewrite: prune lost a referenced column")
      e
  in
  let is_identity kept n = List.length kept = n && List.for_all2 ( = ) kept (identity n) in
  let rec go (p : Plan.t) (need : need) : Plan.t * int list =
    match p with
    | Single_row -> (Single_row, [])
    | Seq_scan { table; _ } | Index_lookup { table; _ } | Index_range { table; _ }
      -> (
        match Catalog.find_table cat table with
        | None -> (p, [])  (* unknown width: leave untouched; kept unused *)
        | Some t ->
          let n = Schema.arity (Table.schema t) in
          (match need with
          | All -> (p, identity n)
          | Cols cs ->
            let kept = IntSet.elements cs in
            if List.length kept = n then (p, identity n)
            else begin
              incr fires;
              ( Project (Array.of_list (List.map (fun c -> CCol c) kept), p),
                kept )
            end))
    | Filter (f, i) ->
      let child_need =
        if has_subplan f then All
        else need_union need (Cols (IntSet.of_list (cols_of f)))
      in
      let i', kept = go i child_need in
      let f' = if child_need = All then f else remap_with kept f in
      (Filter (f', i'), kept)
    | Project (es, i) ->
      let n = Array.length es in
      let wanted =
        match need with
        | All -> identity n
        | Cols cs ->
          (* keep requested slots plus any unused expression whose
             evaluation could raise *)
          List.filter
            (fun j -> IntSet.mem j cs || not (droppable es.(j)))
            (identity n)
      in
      let kept_exprs = List.map (fun j -> es.(j)) wanted in
      let child_need = need_of_exprs (Array.of_list kept_exprs) in
      let i', kept_i = go i child_need in
      let es' =
        Array.of_list
          (List.map
             (fun e -> if child_need = All then e else remap_with kept_i e)
             kept_exprs)
      in
      if List.length wanted < n then incr fires;
      (Project (es', i'), wanted)
    | Nested_loop_join { left; right; cond; left_outer; right_arity } -> (
      match arity_of cat left with
      | None ->
        let left, _ = go left All and right, _ = go right All in
        ( Nested_loop_join { left; right; cond; left_outer; right_arity },
          match need with All -> [] | Cols cs -> IntSet.elements cs )
      | Some la ->
        let split_need extra_exprs =
          let base = need_union need (need_of_exprs extra_exprs) in
          match base with
          | All -> (All, All)
          | Cols cs ->
            ( Cols (IntSet.filter (fun c -> c < la) cs),
              Cols
                (IntSet.map (fun c -> c - la) (IntSet.filter (fun c -> c >= la) cs))
            )
        in
        let ln, rn = split_need (match cond with Some c -> [| c |] | None -> [||]) in
        let left', kept_l = go left ln in
        let right', kept_r = go right rn in
        let kept = kept_l @ List.map (fun c -> c + la) kept_r in
        let remap_concat e =
          if is_identity kept (la + right_arity) then e else remap_with kept e
        in
        let cond' = Option.map remap_concat cond in
        ( Nested_loop_join
            { left = left'; right = right'; cond = cond'; left_outer;
              right_arity = List.length kept_r },
          kept ))
    | Hash_join { left; right; left_keys; right_keys; cond; left_outer; right_arity }
      -> (
      match arity_of cat left with
      | None ->
        let left, _ = go left All and right, _ = go right All in
        ( Hash_join
            { left; right; left_keys; right_keys; cond; left_outer; right_arity },
          match need with All -> [] | Cols cs -> IntSet.elements cs )
      | Some la ->
        let base =
          need_union need
            (match cond with Some c -> need_of_exprs [| c |] | None -> Cols IntSet.empty)
        in
        let ln_extra = need_of_exprs left_keys in
        let rn_extra = need_of_exprs right_keys in
        let ln, rn =
          match base with
          | All -> (All, All)
          | Cols cs ->
            ( Cols (IntSet.filter (fun c -> c < la) cs),
              Cols
                (IntSet.map (fun c -> c - la) (IntSet.filter (fun c -> c >= la) cs))
            )
        in
        let left', kept_l = go left (need_union ln ln_extra) in
        let right', kept_r = go right (need_union rn rn_extra) in
        let kept = kept_l @ List.map (fun c -> c + la) kept_r in
        let remap_side kept_side full e =
          if is_identity kept_side full then e else remap_with kept_side e
        in
        let left_keys' = Array.map (remap_side kept_l la) left_keys in
        let right_keys' = Array.map (remap_side kept_r right_arity) right_keys in
        let cond' =
          Option.map
            (fun c ->
              if is_identity kept (la + right_arity) then c else remap_with kept c)
            cond
        in
        ( Hash_join
            { left = left'; right = right'; left_keys = left_keys';
              right_keys = right_keys'; cond = cond'; left_outer;
              right_arity = List.length kept_r },
          kept ))
    | Structural_join
        ({ left; right; interval_on_left; left_doc; right_doc; lo; hi; pos;
           cond; right_arity; _ } as j) -> (
      match arity_of cat left with
      | None ->
        let left, _ = go left All and right, _ = go right All in
        ( Structural_join { j with left; right },
          match need with All -> [] | Cols cs -> IntSet.elements cs )
      | Some la ->
        let left_exprs =
          Array.of_list
            (left_doc :: (if interval_on_left then [ lo; hi ] else [ pos ]))
        in
        let right_exprs =
          Array.of_list
            (right_doc :: (if interval_on_left then [ pos ] else [ lo; hi ]))
        in
        let base =
          need_union need
            (match cond with Some c -> need_of_exprs [| c |] | None -> Cols IntSet.empty)
        in
        let ln, rn =
          match base with
          | All -> (All, All)
          | Cols cs ->
            ( Cols (IntSet.filter (fun c -> c < la) cs),
              Cols
                (IntSet.map (fun c -> c - la) (IntSet.filter (fun c -> c >= la) cs))
            )
        in
        let left', kept_l = go left (need_union ln (need_of_exprs left_exprs)) in
        let right', kept_r = go right (need_union rn (need_of_exprs right_exprs)) in
        let kept = kept_l @ List.map (fun c -> c + la) kept_r in
        let remap_side kept_side full e =
          if is_identity kept_side full then e else remap_with kept_side e
        in
        let rl e = remap_side kept_l la e in
        let rr e = remap_side kept_r right_arity e in
        let cond' =
          Option.map
            (fun c ->
              if is_identity kept (la + right_arity) then c else remap_with kept c)
            cond
        in
        ( Structural_join
            { j with left = left'; right = right'; left_doc = rl left_doc;
              right_doc = rr right_doc;
              lo = (if interval_on_left then rl lo else rr lo);
              hi = (if interval_on_left then rl hi else rr hi);
              pos = (if interval_on_left then rr pos else rl pos);
              cond = cond'; right_arity = List.length kept_r },
          kept ))
    | Sort (keys, i) ->
      let key_exprs = Array.map fst keys in
      let child_need = need_union need (need_of_exprs key_exprs) in
      let i', kept = go i child_need in
      let keys' =
        if child_need = All then keys
        else Array.map (fun (e, d) -> (remap_with kept e, d)) keys
      in
      (Sort (keys', i'), kept)
    | Aggregate { group_by; aggs; input } ->
      let arg_exprs =
        Array.of_list
          (List.filter_map (fun a -> a.agg_arg) (Array.to_list aggs))
      in
      let child_need = need_union (need_of_exprs group_by) (need_of_exprs arg_exprs) in
      let input', kept_i = go input child_need in
      let r e = if child_need = All then e else remap_with kept_i e in
      let group_by' = Array.map r group_by in
      let aggs' = Array.map (fun a -> { a with agg_arg = Option.map r a.agg_arg }) aggs in
      ( Aggregate { group_by = group_by'; aggs = aggs'; input = input' },
        identity (Array.length group_by + Array.length aggs) )
    | Distinct i ->
      (* row-level dedup consumes every column *)
      let i', kept = go i All in
      (Distinct i', kept)
    | Union_all inputs -> (
      match (need, arity_of cat p) with
      | All, _ | _, None ->
        ( Union_all (List.map (fun i -> fst (go i All)) inputs),
          match arity_of cat p with Some n -> identity n | None -> [] )
      | Cols cs, Some n ->
        let target = IntSet.elements cs in
        if List.length target = n then
          (Union_all (List.map (fun i -> fst (go i All)) inputs), identity n)
        else
          (* align every branch to exactly [target] *)
          let inputs' =
            List.map
              (fun i ->
                let i', kept = go i (Cols cs) in
                if kept = target then i'
                else begin
                  incr fires;
                  Project
                    ( Array.of_list
                        (List.map (fun c -> remap_with kept (CCol c)) target),
                      i' )
                end)
              inputs
          in
          (Union_all inputs', target))
    | Limit { limit; offset; input } ->
      let input', kept = go input need in
      (Limit { limit; offset; input = input' }, kept)
    | Exchange { inputs; workers } -> (
      match need with
      | All -> (Exchange { inputs = List.map (fun i -> fst (go i All)) inputs; workers },
                (match arity_of cat p with Some n -> identity n | None -> []))
      | Cols cs ->
        let target = IntSet.elements cs in
        let inputs' =
          List.map
            (fun i ->
              let i', kept = go i (Cols cs) in
              if kept = target then i'
              else begin
                incr fires;
                Project
                  ( Array.of_list
                      (List.map (fun c -> remap_with kept (CCol c)) target),
                    i' )
              end)
            inputs
        in
        (Exchange { inputs = inputs'; workers }, target))
  in
  (* Prune inside embedded subplans too. IN and scalar subplans are read
     through column 0 only; EXISTS only checks cardinality. Since [go]
     returns an ascending [kept] superset of the need, slot 0 keeps
     position 0, so the evaluation sites need no adjustment. *)
  let sub_root kind sp =
    let need =
      match kind with
      | Sub_in | Sub_scalar -> Cols (IntSet.singleton 0)
      | Sub_exists -> Cols IntSet.empty
    in
    fst (go sp need)
  in
  let plan = transform ~sub_root (fun p -> p) plan in
  let plan, _ = go plan All in
  (plan, !fires)

(* ------------------------------------------------------------------ *)
(* Rule: proj-fuse                                                     *)
(* ------------------------------------------------------------------ *)

let atomic = function CLit _ | CCol _ | CParam _ -> true | _ -> false

let proj_fuse cat plan =
  let fires = ref 0 in
  let fnode = function
    | Project (es1, Project (es2, i))
      when Array.for_all (fun e -> not (has_subplan e)) es1 ->
      (* composition is safe only if no inner expression that could be
         duplicated (referenced twice) is expensive, and no outer
         expression carries a subplan (its params are numbered against
         the inner projection's output row) *)
      let n2 = Array.length es2 in
      let occs = List.concat_map col_occurrences (Array.to_list es1) in
      let in_range = List.for_all (fun c -> c >= 0 && c < n2) occs in
      let ok =
        in_range
        &&
        (* don't duplicate a non-atomic inner expression *)
        let uses = Array.make n2 0 in
        List.iter (fun c -> uses.(c) <- uses.(c) + 1) occs;
        let safe = ref true in
        Array.iteri
          (fun j n -> if n > 1 && not (atomic es2.(j)) then safe := false)
          uses;
        !safe
      in
      if not ok then Project (es1, Project (es2, i))
      else begin
        incr fires;
        let subst e =
          let rec s = function
            | CCol j -> copy_cexpr es2.(j)
            | CLit v -> CLit v
            | CParam k -> CParam k
            | CBinop (op, a, b) -> CBinop (op, s a, s b)
            | CUnop (op, a) -> CUnop (op, s a)
            | CFn (name, args) -> CFn (name, List.map s args)
            | CLike { subject; pattern; escape; negated } ->
              CLike
                { subject = s subject; pattern = s pattern;
                  escape = Option.map s escape; negated }
            | CIn_list { subject; candidates; negated } ->
              CIn_list { subject = s subject; candidates = List.map s candidates; negated }
            | CIs_null { subject; negated } -> CIs_null { subject = s subject; negated }
            | CBetween { subject; low; high; negated } ->
              CBetween { subject = s subject; low = s low; high = s high; negated }
            | CCase { branches; else_ } ->
              CCase
                { branches = List.map (fun (c, r) -> (s c, s r)) branches;
                  else_ = Option.map s else_ }
            | (CIn_plan _ | CExists_plan _ | CScalar_plan _) as e -> copy_cexpr e
          in
          s e
        in
        Project (Array.map subst es1, i)
      end
    | Project (es, i) as p -> (
      (* identity projection over a same-width input disappears *)
      let ident =
        Array.for_all Fun.id (Array.mapi (fun j e -> e = CCol j) es)
      in
      if not ident then p
      else
        match arity_of cat i with
        | Some n when n = Array.length es ->
          incr fires;
          i
        | _ -> p)
    | p -> p
  in
  let plan = transform fnode plan in
  (plan, !fires)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let rules : (string * (Catalog.t -> Plan.t -> Plan.t * int)) list =
  [ ("sort-elim", sort_elim);
    ("filter-pushdown", filter_pushdown);
    ("filter-merge", filter_merge);
    ("prune", prune);
    ("proj-fuse", proj_fuse) ]

let apply_rule cat name plan =
  match List.assoc_opt name rules with
  | Some rule -> rule cat plan
  | None -> failwith (Printf.sprintf "unknown rewrite rule %S" name)

let apply cat plan =
  List.fold_left
    (fun (plan, report) (name, rule) ->
      let plan, fires = rule cat plan in
      (plan, if fires > 0 then report @ [ (name, fires) ] else report))
    (plan, []) rules

(* ------------------------------------------------------------------ *)
(* EXPLAIN rendering                                                   *)
(* ------------------------------------------------------------------ *)

let node_tag = function
  | Seq_scan { filter = Some _; _ }
  | Index_lookup { filter = Some _; _ }
  | Index_range { filter = Some _; _ } -> " [fused=scan+filter]"
  | _ -> ""

let footer report =
  let rules_s =
    match report with
    | [] -> "none"
    | r -> String.concat " " (List.map (fun (n, c) -> Printf.sprintf "%s=%d" n c) r)
  in
  Printf.sprintf "\nVectorized: batch=%d rewrites=[%s]\n" Batch.max_rows rules_s
