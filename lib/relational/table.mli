(** Heap tables: append-only row stores with tombstone deletion and
    attached secondary indexes. Row ids are stable for the lifetime of a
    row and never reused.

    Two interchangeable backends share the rowid discipline: the
    in-memory vector, and (given a [storage] context) a paged heap file
    read through the buffer pool. *)

type t

val create : ?storage:Storage.t -> Schema.t -> t
(** A declared primary key materialises as an implicit unique index named
    ["<table>_pkey"] (B+tree). With [storage] the rows live in a paged
    heap file (attached if its files already exist). *)

val schema : t -> Schema.t
val row_count : t -> int
(** Live rows. *)

val next_rowid : t -> int
(** The rowid the next insert will receive (= slots ever allocated). *)

val insert : t -> Value.t array -> (int, string) result
(** Validates against the schema and all unique indexes; returns the new
    row id. On error nothing is modified. *)

val append_bulk : t -> Value.t array -> (int, string) result
(** Append without maintaining indexes (the bulk-load path builds them
    separately). Schema validation still applies. *)

val delete : t -> int -> bool
(** [delete t rowid] tombstones a row; false if already dead or out of
    range. Indexes are maintained. *)

val update : t -> int -> Value.t array -> (unit, string) result
(** Replace the row image; indexes are maintained. *)

val undelete : t -> int -> Value.t array -> bool
(** [undelete t rowid row] restores a previously tombstoned slot with the
    given row image (transaction rollback of a delete). False if the slot
    is live or out of range. Indexes are maintained. *)

val get : t -> int -> Value.t array option
(** [None] for tombstoned or unknown ids. *)

val scan : t -> (int * Value.t array) Seq.t
(** Live rows in row-id order. *)

val scan_range : t -> lo:int -> hi:int -> (int * Value.t array) Seq.t
(** Live rows with [lo <= rowid < hi] in row-id order. *)

val add_index : t -> Index.t -> (unit, string) result
(** Builds the index over existing rows; fails (leaving the table
    unchanged) if a unique constraint is violated by current data. *)

val attach_index : t -> Index.t -> unit
(** Register an already-populated index without building it (attach of a
    paged index after a clean shutdown). *)

val drop_index : t -> string -> bool

val indexes : t -> Index.t list
val find_index : t -> string -> Index.t option

val truncate : t -> unit
(** Remove all rows (indexes are emptied, row ids restart at 0). *)

(** {2 MVCC snapshot reads}

    Copy-on-write row visibility keyed by commit sequence number. A
    writer stashes a row's pre-image before its first modification and
    the table length before its first append; commit seals the stashes
    at the new CSN, rollback discards them. A snapshot [{at; self}]
    reads the image each row had at CSN [at] — plus the uncommitted
    writes of transaction [self], its own — without taking any lock the
    writer could block on. Table-level exclusive write locks mean at
    most one writer is ever in flight per table, which keeps version
    chains single-pending and lets readers run entirely lock-free
    (amortised one mutex acquisition per scanned chunk) when no
    version history exists. *)

type snap = { at : int; self : int }
(** [at]: the CSN this read is positioned at. [self]: the reader's own
    transaction id ([-1] when not in a transaction) — a transaction
    sees its own uncommitted writes. *)

val stash_row : t -> txid:int -> ?since:int -> int -> bool
(** [stash_row t ~txid ?since rowid] records the row's pre-image before
    [txid]'s first modification of it (idempotent per transaction).
    MUST be called before mutating the row. With [since] (the writer's
    pinned snapshot), returns [false] — and stashes nothing — when the
    row was committed over since that snapshot: first-updater-wins, the
    caller must abort the transaction. *)

val stash_len : t -> txid:int -> unit
(** Record the table length before [txid]'s first append (idempotent
    per transaction). MUST be called before the append. *)

val seal_versions : t -> txid:int -> csn:int -> unit
(** Commit [txid]'s stashes as history valid until [csn]. Call before
    publishing [csn] as the current clock. *)

val discard_versions : t -> txid:int -> unit
(** Drop [txid]'s pending stashes: rollback (after the raw store has
    been restored), or a commit no active snapshot needs to remember. *)

val gc_versions : t -> min_active:int option -> int
(** Reclaim sealed versions no active snapshot can reach ([None]: no
    snapshot is active, reclaim all sealed history). Returns the
    remaining version count. *)

val visible_len : t -> snap -> int
(** Rowids at or past this bound do not exist for the snapshot. *)

val get_at : t -> snap -> int -> Value.t array option
(** {!get} as of the snapshot. *)

val scan_at : t -> snap -> (int * Value.t array) Seq.t
(** {!scan} as of the snapshot: rows visible at [snap.at] (plus
    [snap.self]'s own writes) in rowid order. Never blocks on writers;
    a chunked re-validation protocol keeps it raw-speed when no version
    history exists. *)

val lookup_at : t -> snap -> Index.t -> Value.t array -> Value.t array list
(** Index equality probe as of the snapshot: the rows whose snapshot
    image carries exactly this key. When version history exists the
    current index may disagree with the snapshot, so candidates are
    re-validated against their resolved images and emitted in rowid
    order; otherwise this is exactly the raw probe. *)

val range_at :
  t -> snap -> Index.t ->
  ?lo:Value.t array * bool -> ?hi:Value.t array * bool -> unit ->
  Value.t array list
(** Index range probe as of the snapshot, emitted in (key, rowid)
    order. Btree indexes only, same NULL semantics as {!Index.range}. *)

val close : t -> unit
(** Write back and close the backing page files (no-op in memory). *)

val destroy : t -> unit
(** Delete the backing page files (no-op in memory). *)
