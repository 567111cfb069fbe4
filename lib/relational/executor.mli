(** Plan execution over column batches.

    Plans are compiled by {!Planner}; this module evaluates them lazily,
    every operator exchanging {!Batch.t} batches, and hands the caller a
    row sequence. Correlated subplans run the same way, once per outer
    row. Blocking operators (sort, aggregate, hash-join build side,
    structural-join inputs) materialise internally. *)

exception Runtime_error of string

val run :
  Catalog.t -> ?params:Value.t array -> ?obs:Obs.profile ->
  ?cancel:Cancel.t -> ?view:Table.snap -> Plan.t -> Value.t array Seq.t
(** Evaluate a plan. [params] fills [CParam] slots of correlated
    subplans (the top level normally passes none). [obs], built with
    {!Obs.create} from the same physical plan, charges each operator
    with rows, probes, hash-build sizes and wall time as the result is
    consumed. [cancel] is consulted at every operator boundary, subplans
    included: once the token fires (timeout or explicit cancel) the next
    batch pull raises {!Cancel.Canceled}. [view] pins every table access
    (scans and index probes) to one MVCC snapshot ({!Table.snap});
    without it the executor reads the raw current state.
    @raise Runtime_error on evaluation failures (unknown table at run
    time, bad function arity, etc.).
    @raise Cancel.Canceled when [cancel] fires mid-execution. *)

val eval_expr :
  Catalog.t -> ?params:Value.t array -> Value.t array -> Plan.cexpr -> Value.t
(** Evaluate a compiled scalar expression against a row. *)

val like_match : ?escape:char -> pattern:string -> string -> bool
(** SQL LIKE with [%] and [_] wildcards (case-sensitive); [?escape]
    makes the following pattern character match itself literally. *)
