(* Versioned binary dataset snapshots.

   A snapshot serializes a {!Database.t} of base columnar relations so a
   later process can register it in O(columns) rather than re-generating
   or re-parsing the data: every fixed-width column blob is written
   8-aligned and little-endian, and {!load} wraps those blobs with
   [Unix.map_file] directly as {!Column} backing — no per-row work at
   all.  Dictionaries and null bitmaps are small and are read eagerly.

   On-disk layout (v1), all integers unsigned 64-bit little-endian,
   every field padded to an 8-byte boundary:

     magic            8 bytes "GUSSNAP\x01"
     endian sentinel  u64 = 0x0102030405060708 (rejects byte-swapped
                      writers — the mmap path cannot byte-swap)
     version          u64 = 1
     word size        u64 = 64
     n_relations      u64
     repeat per relation:
       name           u64 length + bytes + pad
       n_cols         u64
       n_rows         u64
       repeat per column:  name (u64 + bytes + pad), type code u64
                           (0 bool, 1 int, 2 float, 3 string)
       repeat per column (same order):
         has_nulls    u64 0/1
         [nulls]      packed bitmap, (n_rows+7)/8 bytes + pad
         payload      float/int/bool: n_rows x 8 raw words (mmapped)
                      string: u64 dict size, dict entries (u64 + bytes
                      + pad each), then n_rows x 8 codes (mmapped)

   Version bumps are append-only: readers reject any version they do not
   know ({!Version_mismatch}), and structural damage — bad magic, wrong
   endianness, truncation, out-of-range codes — raises {!Format_error}.
   Both map to stable CLI/serve error codes. *)

exception Format_error of string
exception Version_mismatch of { found : int; expected : int }

let magic = "GUSSNAP\x01"
let version = 1
let endian_sentinel = 0x0102030405060708L

let format_error fmt = Printf.ksprintf (fun m -> raise (Format_error m)) fmt

let ty_code = function
  | Value.TBool -> 0
  | Value.TInt -> 1
  | Value.TFloat -> 2
  | Value.TStr -> 3

let ty_of_code = function
  | 0 -> Value.TBool
  | 1 -> Value.TInt
  | 2 -> Value.TFloat
  | 3 -> Value.TStr
  | c -> format_error "unknown column type code %d" c

let pad8 n = (8 - (n land 7)) land 7

(* ---- writer ---- *)

(* A snapshot stores base relations as columns, without lineage: loading
   gives every row its row id, whatever lineage a tuple appended to the
   base carried.  Derived relations have no place in a catalog
   snapshot. *)
let check_base rel =
  if not (Lineage.schema_equal rel.Relation.lineage_schema
            (Lineage.schema_of rel.Relation.name))
  then
    invalid_arg
      (Printf.sprintf "Snapshot.save: %s is not a base relation"
         rel.Relation.name)

let save ~path db =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let scratch = Bytes.create 8 in
  let w64 x =
    Bytes.set_int64_le scratch 0 x;
    output_bytes oc scratch
  in
  let wint x = w64 (Int64.of_int x) in
  let zeros = Bytes.make 8 '\000' in
  let wpad n = if pad8 n > 0 then output_bytes oc (Bytes.sub zeros 0 (pad8 n)) in
  let wstr s =
    wint (String.length s);
    output_string oc s;
    wpad (String.length s)
  in
  output_string oc magic;
  w64 endian_sentinel;
  wint version;
  wint 64;
  let names = Database.names db in
  wint (List.length names);
  List.iter
    (fun name ->
      let rel = Database.find db name in
      check_base rel;
      let c = rel.Relation.cols in
      let n = c.Relation.cn in
      wstr name;
      wint (Array.length c.Relation.ccols);
      wint n;
      Array.iteri
        (fun j col ->
          wstr (Schema.column_name rel.Relation.schema j);
          wint (ty_code (Column.ty col)))
        c.Relation.ccols;
      Array.iter
        (fun col ->
          (match Column.null_bytes col with
          | None -> wint 0
          | Some b ->
              wint 1;
              output_bytes oc b;
              wpad (Bytes.length b));
          match Column.ty col with
          | Value.TFloat ->
              let ba = Column.float_data col in
              for i = 0 to n - 1 do
                w64 (Int64.bits_of_float (Bigarray.Array1.unsafe_get ba i))
              done
          | Value.TInt | Value.TBool ->
              let ba = Column.int_data col in
              for i = 0 to n - 1 do
                w64 (Int64.of_int (Bigarray.Array1.unsafe_get ba i))
              done
          | Value.TStr ->
              let dict = Column.dict_strings col in
              wint (Array.length dict);
              Array.iter wstr dict;
              let ba = Column.int_data col in
              for i = 0 to n - 1 do
                w64 (Int64.of_int (Bigarray.Array1.unsafe_get ba i))
              done)
        c.Relation.ccols)
    names

(* ---- loader ---- *)

type pending_blob = { off : int; rows : int }

(* [List.init]/[Array.init] leave evaluation order unspecified; header
   parsing is stateful reads, so order them explicitly. *)
let read_list n f =
  let rec go acc i = if i >= n then List.rev acc else go (f i :: acc) (i + 1) in
  go [] 0

let load ~path =
  let ic =
    try open_in_bin path with Sys_error m -> raise (Format_error m)
  in
  let parse () =
    let scratch = Bytes.create 8 in
    let r64 () =
      (try really_input ic scratch 0 8
       with End_of_file -> format_error "truncated file");
      Bytes.get_int64_le scratch 0
    in
    let rint what =
      let x = r64 () in
      if Int64.compare x 0L < 0 || Int64.compare x 0x0000_0100_0000_0000L > 0
      then format_error "implausible %s (%Ld)" what x;
      Int64.to_int x
    in
    let rstr what =
      let len = rint what in
      let b = Bytes.create len in
      (try really_input ic b 0 len
       with End_of_file -> format_error "truncated %s" what);
      seek_in ic (pos_in ic + pad8 len);
      Bytes.unsafe_to_string b
    in
    let m = Bytes.create (String.length magic) in
    (try really_input ic m 0 (String.length magic)
     with End_of_file -> format_error "truncated header");
    if Bytes.to_string m <> magic then format_error "bad magic";
    if r64 () <> endian_sentinel then
      format_error "endianness mismatch (snapshot written on a big-endian host?)";
    let found = rint "version" in
    if found <> version then raise (Version_mismatch { found; expected = version });
    let ws = rint "word size" in
    if ws <> 64 then format_error "unsupported word size %d" ws;
    let nrel = rint "relation count" in
    read_list nrel (fun _ ->
        let name = rstr "relation name" in
        let ncols = rint "column count" in
        let nrows = rint "row count" in
        let cols =
          read_list ncols (fun _ ->
              let cname = rstr "column name" in
              let ty = ty_of_code (rint "column type") in
              (cname, ty))
        in
        let blobs =
          List.map
            (fun (_, ty) ->
              let has_nulls = rint "null flag" in
              let nulls =
                if has_nulls = 0 then None
                else begin
                  let nb = (nrows + 7) / 8 in
                  let b = Bytes.create nb in
                  (try really_input ic b 0 nb
                   with End_of_file -> format_error "truncated null bitmap");
                  seek_in ic (pos_in ic + pad8 nb);
                  Some b
                end
              in
              let dict =
                match ty with
                | Value.TStr ->
                    let nd = rint "dictionary size" in
                    Some
                      (Array.of_list
                         (read_list nd (fun _ -> rstr "dictionary entry")))
                | Value.TBool | Value.TInt | Value.TFloat -> None
              in
              let off = pos_in ic in
              seek_in ic (off + (8 * nrows));
              (nulls, dict, { off; rows = nrows }))
            cols
        in
        (* [seek_in] past EOF does not fail by itself; probe. *)
        if pos_in ic > in_channel_length ic then
          format_error "truncated column data in %s" name;
        (name, nrows, cols, blobs))
  in
  let parsed =
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    try parse () with Invalid_argument m -> format_error "corrupt snapshot: %s" m
  in
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) -> format_error "%s" (Unix.error_message e)
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let map_blob : type a b.
      (a, b) Bigarray.kind -> pending_blob -> (a, b, Bigarray.c_layout) Bigarray.Array1.t =
   fun kind { off; rows } ->
    try
      Bigarray.array1_of_genarray
        (Unix.map_file fd ~pos:(Int64.of_int off) kind Bigarray.c_layout false
           [| rows |])
    with Unix.Unix_error _ | Sys_error _ ->
      format_error "cannot map column data at offset %d" off
  in
  let db = Database.create () in
  List.iter
    (fun (name, nrows, cols, blobs) ->
      let schema =
        try Schema.make (List.map (fun (cname, ty) -> { Schema.name = cname; ty }) cols)
        with Invalid_argument m -> format_error "corrupt snapshot: %s" m
      in
      let ccols =
        Array.of_list
          (List.map2
             (fun (_, ty) (nulls, dict, blob) ->
               try
                 match ty with
                 | Value.TFloat ->
                     Column.of_float_ba ?nulls (map_blob Bigarray.float64 blob)
                 | Value.TInt | Value.TBool ->
                     Column.of_int_ba ?nulls ~ty (map_blob Bigarray.int blob)
                 | Value.TStr ->
                     let dict = Option.get dict in
                     Column.of_codes_ba ?nulls ~dict (map_blob Bigarray.int blob)
               with Invalid_argument m -> format_error "corrupt snapshot: %s" m)
             cols blobs)
      in
      let rel =
        { Relation.name;
          schema;
          lineage_schema = Lineage.schema_of name;
          cols = { Relation.cn = nrows; ccols; clineage = Relation.Identity } }
      in
      try Database.add db rel
      with Invalid_argument m -> format_error "corrupt snapshot: %s" m)
    parsed;
  db
