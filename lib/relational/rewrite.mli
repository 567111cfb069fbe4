(** Pre-execution table-algebra rewrites for the batch executor.

    Applied by the planner to every plan, between plan construction and
    execution, in the fixed order of {!rule_names}:

    - ["sort-elim"]: drop [Sort] operators whose consumer is
      order-insensitive — IN/EXISTS/scalar subplan roots and global
      COUNT/MIN/MAX aggregates.
    - ["filter-pushdown"]: split a [Filter] above an inner join into
      conjuncts and push single-side conjuncts below the join.
    - ["filter-merge"]: fuse [Filter] operators into the scan beneath
      them (or into each partition of an [Exchange] of scans), so the
      batch executor evaluates the predicate during the scan.
    - ["prune"]: global projection pushdown — insert narrowing
      [Project]s over scans so only columns some ancestor consumes are
      carried through joins and sorts.
    - ["proj-fuse"]: compose adjacent [Project] pairs and drop identity
      projections.

    Every rule preserves results byte-for-byte; the differential suite
    checks each rule against the executor's rows on the unrewritten plan
    ({!Planner.plan_select_raw}). Rules never move or duplicate
    an expression containing a subplan across a row-shape change, since
    correlated [CParam] slots are numbered against the row of the
    operator that evaluates the expression. *)

type report = (string * int) list
(** Rules that fired, with fire counts, in application order. *)

val rule_names : string list

val apply : Catalog.t -> Plan.t -> Plan.t * report
(** Run the full rule pipeline. The result plan is freshly allocated
    (safe for identity-keyed profiles). *)

val apply_rule : Catalog.t -> string -> Plan.t -> Plan.t * int
(** Run a single rule by name (property tests). Returns the rewritten
    plan and the rule's fire count.
    @raise Failure on an unknown rule name. *)

val node_tag : Plan.t -> string
(** EXPLAIN suffix for one node: [" [fused=scan+filter]"] on scans that
    carry a merged predicate, [""] elsewhere. *)

val footer : report -> string
(** EXPLAIN footer, e.g.
    ["\nVectorized: batch=1024 rewrites=[sort-elim=1 prune=4]\n"]. *)
