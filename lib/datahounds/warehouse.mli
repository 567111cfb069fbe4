(** The local warehouse: a relational database holding shredded XML
    documents organised into named collections, each governed by the DTD
    its XML-Transformer declared (displayed by the XomatiQ GUI and used
    by query translation).

    DTDs are persisted in the database itself (table [xml_dtd]) so a
    WAL-recovered warehouse keeps its registry. *)

type t

(** A registered remote source: how flat-file text harvested from the
    source becomes named XML documents of a collection. *)
type source = {
  source_name : string;            (** e.g. "enzyme" *)
  source_collection : string;      (** e.g. "hlx_enzyme.DEFAULT" *)
  source_dtd : string;             (** DTD declaration text *)
  source_sequence_elements : string list;
  transform : string -> (string * Gxml.Tree.document) list;
      (** flat text -> (document name, document) pairs; raises on
          malformed input *)
}

val create : ?wal:string -> ?data_dir:string -> unit -> t
(** Fresh warehouse; with [wal], durable and crash-recoverable. With
    [data_dir] the paged on-disk backend holds the rows and indexes
    under that directory ({!Rdb.Database.open_disk}); without it the
    backend follows [XOMATIQ_STORAGE]. *)

val db : t -> Rdb.Database.t
val close : t -> unit

val register_source : t -> source -> unit
(** Records the collection's DTD (idempotent; replaces a previous DTD). *)

val enzyme_source : source
val embl_source : division:string -> source
val swissprot_source : source
val genbank_source : source
val medline_source : source

val harvest : ?analyze:bool -> t -> source -> string -> (int, string) result
(** The Data Hounds pipeline of Figure 1: transform flat-file text to XML
    (validating each document against the source DTD) and shred into the
    warehouse. Returns the number of documents loaded. Existing documents
    with the same name are replaced.

    The whole text is transformed first, so a parse error loads nothing.
    Each document is then validated and prepared ({!Shred.prepare}) and
    installed in document order; an invalid document stops the load
    there, keeping the documents before it. On the disk backend
    installation is spool-then-load ({!Shred.install_prepared_bulk}):
    rows are appended as full pages under one WAL record per table and
    fresh B+tree indexes are built bottom-up — byte-identical to
    installing one document at a time, which the in-memory backend does
    (as does a batch that names a document twice).

    After a successful harvest the four shred tables are re-ANALYZEd so
    the planner sees the new data volume ([analyze] defaults to true;
    pass false — CLI [--no-analyze] — to skip). *)

(** Aggregate load report for one {!harvest_stats} run. *)
type load_stats = {
  docs : int;        (** documents loaded *)
  nodes : int;       (** node rows written *)
  keywords : int;    (** keyword rows written *)
  new_paths : int;   (** paths added to xml_path *)
  transform_s : float;  (** flat text -> XML documents *)
  validate_s : float;   (** DTD validation, summed over documents *)
  shred_s : float;      (** XML2Relational shredding, summed *)
}

val load_stats_to_string : load_stats -> string

val harvest_stats :
  ?analyze:bool -> t -> source -> string -> (load_stats, string) result
(** {!harvest}, additionally reporting shred/insert volume and per-stage
    wall time. *)

val transform_text :
  source -> string -> ((string * Gxml.Tree.document) list, string) result
(** Run the source's transformer, reporting a flat-file parse error
    (a malformed line, an entry a parser rejects) as the message
    {!harvest} and {!Sync.sync_source} return. *)

val load_document :
  ?validate:bool -> t -> collection:string -> name:string ->
  Gxml.Tree.document -> (unit, string) result
(** Load one document (replacing any previous version). [validate]
    defaults to true when the collection has a registered DTD. *)

val dtd_of : t -> collection:string -> Gxml.Dtd.t option

val sequence_elements_of : t -> collection:string -> string list

val collections : t -> string list

val documents : t -> collection:string -> string list

val get_document :
  t -> collection:string -> name:string -> Gxml.Tree.document option
(** Reconstructed from tuples (Relation2XML). *)

val document_count : t -> collection:string -> int

val node_count : t -> int
(** Total xml_node rows across the warehouse. *)
