(** Columnar row batches for the vectorized executor.

    A batch holds up to {!max_rows} rows of one operator's output in
    column-major layout. Columns whose every value is [Value.Int] are
    stored as unboxed [int array]s (the XML region columns — doc_id,
    node_id, last_desc, rowids — always land there); everything else
    stays a boxed [Value.t array]. Filters narrow a batch by attaching a
    selection vector instead of copying survivors. *)

type col =
  | I of int array      (** all-[Value.Int] column, unboxed *)
  | V of Value.t array  (** generic column (NULLs, text, floats, bools) *)

type t = {
  len : int;                (** physical rows in every column *)
  cols : col array;         (** one entry per output column *)
  sel : int array option;   (** live row indices, ascending; [None] = all *)
}

val max_rows : int
(** Target rows per batch: 1024. *)

val arity : t -> int
val live : t -> int
(** Rows surviving the selection vector. *)

val get : t -> int -> int -> Value.t
(** [get b c r]: value of column [c] at physical row [r] (boxes [I]
    entries on demand). *)

val row : t -> int -> Value.t array
(** Box physical row [r] (ignores the selection vector). *)

val rows : t -> Value.t array Seq.t
(** Live rows, boxed, in selection order. *)

val iter_live : (int -> unit) -> t -> unit
(** Apply to each live physical row index, in order. *)

val fold_live : ('a -> int -> 'a) -> 'a -> t -> 'a

val of_rows : arity:int -> Value.t array array -> t
(** Transpose rows into columns, detecting unboxed int columns. The
    array is not retained. [arity] disambiguates the zero-row case. *)

val of_values : Value.t array -> col
(** Seal one column of boxed values, unboxing when every entry is an
    [Int]. The array may be retained as the column. *)

val compact : t -> t
(** Apply the selection vector (gathering every column); no-op when the
    batch is already dense. *)

val concat : arity:int -> t list -> t
(** Concatenate live rows of many batches into one dense batch. *)

val gather : col array -> int array -> col array
(** [gather cols idx]: one dense column set holding rows [idx] (physical
    indices) of [cols], preserving unboxed int columns. *)

val append_cols : t -> t -> int array -> int array -> col array
(** [append_cols l r li ri]: columns of the join output whose row [k] is
    left physical row [li.(k)] concatenated with right physical row
    [ri.(k)]. *)

val to_row_seq : t Seq.t -> Value.t array Seq.t
(** Flatten a batch stream back into the row stream it encodes. *)

val chunk_rows : arity:int -> Value.t array list -> t list
(** Split rows (in order) into batches of at most {!max_rows}. *)
