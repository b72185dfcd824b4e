(** Versioned binary dataset snapshots of base-relation catalogs.

    Little-endian v1 format: a header followed by per-relation,
    per-column blobs (see the implementation comment for the layout
    table).  {!save} streams a {!Database.t} out; {!load} parses the
    header and wraps every fixed-width column blob with [Unix.map_file]
    — restore cost is O(columns), not O(rows).  Mapped columns are
    copy-on-write and have capacity = length, so appending to a restored
    relation copies the data out rather than writing through the file.

    Snapshots are only byte-portable between hosts of the same
    endianness and 64-bit word size; the header records both and the
    loader rejects mismatches. *)

exception Format_error of string
(** Structurally invalid snapshot: bad magic, endianness or word-size
    mismatch, truncation, out-of-range dictionary codes, duplicate
    names. *)

exception Version_mismatch of { found : int; expected : int }
(** Valid header, but a format version this build does not read. *)

val version : int
(** Current on-disk format version (written by {!save}). *)

val save : path:string -> Database.t -> unit
(** Serialize all relations.  Raises [Invalid_argument] if the database
    holds a non-base relation.  Lineage is not stored: loaded relations
    carry row-id lineage. *)

val load : path:string -> Database.t
(** Parse and map [path].  Raises {!Format_error} or
    {!Version_mismatch}; never returns a partially-loaded database. *)
