(** Query planning: name resolution, predicate pushdown, index selection
    and greedy join ordering.

    The planner mirrors the behaviour the paper relies on from Oracle's
    optimizer: WHERE conjuncts are pushed to their base relations, equality
    conjuncts against indexed columns become index lookups, range
    conjuncts on B+tree indexes become index range scans, and equi-join
    conjuncts drive hash joins ordered greedily by estimated cardinality.
    Correlated outer references in subqueries compile to parameter slots
    and can feed index probes. *)

exception Plan_error of string

type planned = {
  plan : Plan.t;
  column_names : string list;  (** output column headers, in order *)
  rewrites : (string * int) list;
      (** table-algebra rewrite rules that fired on this plan, as
          [(rule name, times)] in {!Rewrite.rule_names} order; empty when
          no rule fired *)
  est_cost : float;
      (** root cost estimate of the final (rewritten) plan in the cost
          model's "rows touched" unit; the adaptive scheduler's cost
          gate compares it against [Conc.Sched.cost_threshold] *)
}

val plan_select : Catalog.t -> Sql_ast.select -> planned
(** @raise Plan_error on unknown tables/columns, ambiguous references,
    or misuse of aggregates. *)

val plan_select_raw : Catalog.t -> Sql_ast.select -> Plan.t
(** The plan {!plan_select} builds before the {!Rewrite} pass, for
    checking rewrite rules one at a time. *)

val plan_query : Catalog.t -> Sql_ast.query -> planned
(** Plan a UNION chain. Column names come from the first branch; a plain
    UNION anywhere makes the whole result set-semantic (distinct). *)

val compile_scalar :
  Catalog.t -> Sql_ast.expr -> Plan.cexpr
(** Compile an expression with no column references (INSERT values,
    DEFAULTs). @raise Plan_error if it mentions a column. *)

val compile_row_predicate :
  Catalog.t -> Schema.t -> Sql_ast.expr -> Plan.cexpr
(** Compile an expression against a single table's schema (UPDATE/DELETE
    WHERE clauses); column slots index into the table row. *)
