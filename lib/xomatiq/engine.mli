(** The XomatiQ query engine: the end-to-end path of Section 3 — parse a
    FLWR query, rewrite it to SQL over the generic schema (XQ2SQL),
    evaluate on the relational engine, and return the rows either as a
    table or re-tagged into XML (Relation2XML).

    Rows are distinct and sorted, so results are directly comparable with
    the reference evaluator ({!Eval}), which is also exposed here as the
    [`Reference] execution mode for differential testing and baselines. *)

type trace = {
  stages : (string * float) list;
      (** all six pipeline stages in order — parse, xq2sql, sql-parse,
          plan, execute, tag — with wall-clock seconds (0. for stages
          that did not run, e.g. parse when the AST was pre-parsed) *)
  indexes : string list;  (** index names the chosen plan probes *)
  result_rows : int;
  operator_rows : int;    (** rows produced summed over plan operators *)
  index_probes : int;
  hash_build_rows : int;
  plan : string option;   (** annotated plan tree (relational mode) *)
}

type result = {
  labels : string list;
  rows : string list list;  (** distinct, sorted *)
  sql : string;             (** the SQL the query was rewritten to *)
  trace : trace option;     (** populated when run with [~trace:true] *)
  cached : bool;            (** served from the translated-plan cache *)
}

type mode =
  [ `Relational   (** XQ2SQL + relational engine (the XomatiQ way) *)
  | `Reference    (** in-memory evaluation over reconstructed documents *)
  ]

exception Query_error of string

val run :
  ?mode:mode -> ?contains_strategy:Xq2sql.contains_strategy ->
  ?trace:bool -> Datahounds.Warehouse.t -> Ast.t -> result
(** @raise Query_error wrapping parse/translation/execution failures.
    [contains_strategy] selects how contains() is rewritten (relational
    mode only); the default probes the inverted keyword index.
    [trace] (default false) times each pipeline stage and profiles the
    physical plan; see {!trace}. *)

val run_text :
  ?mode:mode -> ?contains_strategy:Xq2sql.contains_strategy ->
  ?trace:bool -> ?cancel:Rdb.Cancel.t -> Datahounds.Warehouse.t -> string ->
  result
(** Parse the textual form first (the trace's [parse] stage measures
    this parse).

    [cancel] — the per-query cancellation token of the calling session
    (the query server creates one per request, carrying the
    [--query-timeout] deadline) — is threaded into the executor, which
    checks it at every operator boundary. A fired token aborts the run
    with [Rdb.Cancel.Canceled] (never wrapped into {!Query_error}, so
    callers can distinguish typed TIMEOUT/CANCELED outcomes from query
    failures).

    On the untraced relational path, translated plans are cached: the
    cache key is the whitespace-normalized query text plus the
    contains-strategy, and an entry is valid only for the same warehouse
    at the same catalog version — any DDL, DML or ANALYZE bumps the
    version and so invalidates every cached plan for that warehouse. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of the translated-plan cache since start (or the
    last {!cache_clear}). *)

val cache_clear : unit -> unit
(** Drop all cached plans and reset {!cache_stats}. *)

val trace_to_string : trace -> string
(** Compact multi-line profile: per-stage timings, chosen indexes, and
    operator counters. *)

(** {2 Prepared queries}

    The XQ2SQL rewrite (path-id resolution against [xml_path]), SQL
    parsing and physical planning all happen once at prepare time; each
    {!run_prepared} only executes the plan. The GUI prepares a query when
    the user clicks "Translate Query" and re-executes it as they browse.

    A prepared plan embeds resolved [path_id]s and index choices: prepare
    again after loading documents with new element paths or changing the
    index set. *)

type prepared

val prepare :
  ?contains_strategy:Xq2sql.contains_strategy ->
  Datahounds.Warehouse.t -> Ast.t -> prepared

val run_prepared : prepared -> result

(** {2 Server-side text preparation}

    The query server's scheduling gate needs the plan's cost estimate
    *before* deciding where to run the query, so planning and execution
    are split: {!prepare_text} resolves the text through the plan cache
    (populating it on a miss, before any execution), {!prepared_cost}
    exposes the root cost estimate, and {!run_prepared_text} executes.
    A session memoizes its last preparation and revalidates it with
    {!prepared_valid} — repeated hot queries then skip the cache mutex
    and hashtable entirely. *)

type prepared_text

val prepare_text :
  contains_strategy:Xq2sql.contains_strategy ->
  Datahounds.Warehouse.t -> string -> prepared_text
(** @raise Query_error on parse, translation or planning failure. *)

val prepared_hit : prepared_text -> bool
(** Whether {!prepare_text} was served from the plan cache. *)

val prepared_cost : prepared_text -> float
(** Root cost estimate of the prepared plan ("rows touched"); [0.] for
    statically-empty queries. *)

val prepared_valid :
  contains_strategy:Xq2sql.contains_strategy ->
  Datahounds.Warehouse.t -> prepared_text -> bool
(** True while the preparation still matches this warehouse, its catalog
    version, and contains strategy. *)

val run_prepared_text :
  ?cancel:Rdb.Cancel.t -> cached:bool -> prepared_text -> result
(** Execute a prepared text; [cached] is echoed as {!result.cached}
    (the server reports its memo hits through it). *)

val explain : Datahounds.Warehouse.t -> Ast.t -> string
(** The SQL text and the physical plan chosen by the relational
    optimizer. *)

val explain_analyze : Datahounds.Warehouse.t -> Ast.t -> string
(** Like {!explain}, but executes the query and annotates every plan
    operator with rows produced, index probes, hash-build sizes and
    wall time. *)

val result_to_xml : result -> Gxml.Tree.document
val result_to_table : result -> string
