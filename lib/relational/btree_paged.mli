(** On-disk B+tree with page-at-a-time node access through {!Bufpool}.

    Keys are tuples ([Value.t array]) stored Rowcodec-encoded and
    compared decoded with {!Btree.compare_key} — never byte-wise, so the
    cross-type numeric ordering of [Value.compare_total] ([Int 3] equals
    [Float 3.]) matches the in-memory tree exactly; equal encoded bytes
    only short-cut a comparison to "equal". Duplicates are one cell per
    (key, rowid): inserts append at the end of the equal run
    (upper-bound descent), so per-key rowid order equals insertion order
    just like the in-memory posting lists; lookups, removals and range
    scans descend by lower bound and follow the run across leaf
    boundaries. Keys longer than ~2 KiB spill to overflow chains.

    Every operation works on the bytes of the pinned page: one descent
    binary-searches each page's slot array, decoding only the keys it
    probes; inserts and removals edit the slot array in place. Only a
    node that must split is decoded, cut by byte size and rewritten, so
    split decisions, and with them page counts, depend on the cells a
    node holds and not on the order of the edits that put them there.

    Like the heap files, tree pages are only trusted after a clean
    shutdown (see {!Storage}); recovery rebuilds from the WAL. *)

type t

exception Duplicate of Value.t array
(** Raised by {!insert} and {!bulk_load} with [~unique:true] on a key
    that is already present. *)

val create : Bufpool.t -> path:string -> t
(** Open the tree stored at [path], attaching when the file already has
    pages and initialising an empty single-leaf tree otherwise. *)

val insert : ?unique:bool -> t -> Value.t array -> int -> unit
(** Add (key, rowid) at the end of the key's run. With [unique] a
    present key raises {!Duplicate} and leaves the tree unchanged. *)

val mem : t -> Value.t array -> bool

val find : t -> Value.t array -> int list
(** Rowids for the key in insertion order ([[]] when absent). *)

val remove : t -> Value.t array -> (int -> bool) -> unit
(** Drop the key's postings matching the predicate, in one sweep of the
    key's run. *)

val range :
  ?lo:Value.t array * bool ->
  ?hi:Value.t array * bool ->
  t ->
  (Value.t array * int) Seq.t
(** Entries in key order (bool = inclusive), same bound semantics as
    {!Btree.range}. *)

val iter : (Value.t array -> int -> unit) -> t -> unit

val cardinal : t -> int
(** Distinct keys. *)

val entry_count : t -> int
(** Total (key, rowid) postings. *)

val bulk_load : ?unique:bool -> t -> (string * int) Seq.t -> unit
(** Build the tree bottom-up from (Rowcodec-encoded key, rowid) pairs
    sorted by (key, tie-break rowid): packed leaves first, then each
    internal level from the level below. The tree must be empty. *)

val truncate : t -> unit
val sync : t -> unit
val close : t -> unit
val destroy : t -> unit
val path : t -> string
