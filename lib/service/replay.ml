(* Re-execute a journal (Gus_obs.Journal NDJSON) against a catalog and
   assert bit-identical estimates.

   The engine's determinism contract — estimates depend only on
   (dataset version, sql, overrides) — makes the journal a reproducible
   trace, not just a log: register events rebuild each dataset from its
   recorded source in journal order (so versions line up), and exec
   events re-run the SQL with the journaled seed/rates/explain/exact
   and compare estimate, stddev and variance bit for bit. *)

module Journal = Gus_obs.Journal

exception Corrupt of { line : int; message : string }

let corrupt line message = raise (Corrupt { line; message })

type mismatch = {
  mm_line : int;
  mm_sql : string;
  mm_field : string;
  mm_journaled : float;
  mm_replayed : float;
}

type report = {
  rp_registers : int;  (** datasets rebuilt from journaled sources *)
  rp_skipped : int;  (** register events for already-present datasets *)
  rp_executions : int;
  rp_matched : int;
  rp_sheds : int;  (** shed decision events (advisory, skipped) *)
  rp_mismatches : mismatch list;
}

(* Bit-identity up to "nan equals nan": the journal renders non-finite
   values symbolically, so any nan payload distinction is already gone
   at export time. *)
let same_bits a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let num_field ~line j name =
  match Json.member name j with
  | Some (Json.Num v) -> v
  | Some (Json.Str "nan") -> Float.nan
  | Some (Json.Str "inf") -> Float.infinity
  | Some (Json.Str "-inf") -> Float.neg_infinity
  | _ -> corrupt line (Printf.sprintf "missing number field %S" name)

let str_field ~line j name =
  match Option.bind (Json.member name j) Json.to_str with
  | Some s -> s
  | None -> corrupt line (Printf.sprintf "missing string field %S" name)

let int_field ~line j name =
  match Option.bind (Json.member name j) Json.to_int with
  | Some n -> n
  | None -> corrupt line (Printf.sprintf "missing integer field %S" name)

let bool_field ~line j name =
  match Option.bind (Json.member name j) Json.to_bool with
  | Some b -> b
  | None -> corrupt line (Printf.sprintf "missing bool field %S" name)

let rates_field ~line j =
  match Json.member "rates" j with
  | Some (Json.Obj fields) ->
      List.map
        (fun (rel, v) ->
          match Json.to_num v with
          | Some rate -> (rel, rate)
          | None -> corrupt line (Printf.sprintf "rate for %S not a number" rel))
        fields
  | _ -> corrupt line "missing object field \"rates\""

let replay_exec engine handles ~line j acc =
  let dataset = str_field ~line j "dataset" in
  let sql = str_field ~line j "sql" in
  let ov =
    { Prepared.seed = int_field ~line j "seed";
      rates = rates_field ~line j;
      explain = bool_field ~line j "explain";
      exact = bool_field ~line j "exact" }
  in
  let p =
    match Hashtbl.find_opt handles (dataset, sql) with
    | Some p -> p
    | None ->
        let p = Prepared.prepare (Engine.catalog engine) ~dataset sql in
        Hashtbl.add handles (dataset, sql) p;
        p
  in
  let outcome = Engine.execute_prepared engine ~label:sql p ov in
  let estimate, stddev, variance = Engine.journal_stats outcome.Engine.response in
  let mismatches =
    List.filter_map
      (fun (field, journaled, replayed) ->
        if same_bits journaled replayed then None
        else
          Some
            { mm_line = line;
              mm_sql = sql;
              mm_field = field;
              mm_journaled = journaled;
              mm_replayed = replayed })
      [ ("estimate", num_field ~line j "estimate", estimate);
        ("stddev", num_field ~line j "stddev", stddev);
        ("variance", num_field ~line j "variance", variance) ]
  in
  { acc with
    rp_executions = acc.rp_executions + 1;
    rp_matched = (acc.rp_matched + if mismatches = [] then 1 else 0);
    rp_mismatches = acc.rp_mismatches @ mismatches }

let replay_register engine ~line j acc =
  let dataset = str_field ~line j "dataset" in
  let source =
    match Json.member "source" j with
    | Some (Json.Obj _ as s) -> s
    | _ -> corrupt line "missing object field \"source\""
  in
  match Catalog.find (Engine.catalog engine) dataset with
  | Some _ ->
      (* Already present (caller pre-registered it, e.g. an in-memory
         dataset the journal's source cannot rebuild): trust it and let
         the estimate comparison catch any data drift. *)
      { acc with rp_skipped = acc.rp_skipped + 1 }
  | None ->
      (match Option.bind (Json.member "source" source) Json.to_str with
      | Some "memory" ->
          failwith
            (Printf.sprintf
               "journal line %d: dataset %S has an in-memory source; \
                register it on the replay engine first"
               line dataset)
      | _ -> ());
      ignore
        (Engine.register engine ~name:dataset
           ~source:(Wire.source_of_request source));
      { acc with rp_registers = acc.rp_registers + 1 }

let replay_line engine handles ~line raw acc =
  let j =
    match Json.of_string raw with
    | j -> j
    | exception Json.Parse_error msg -> corrupt line msg
  in
  match Option.bind (Json.member "ev" j) Json.to_str with
  | Some "register" -> replay_register engine ~line j acc
  | Some "exec" -> replay_exec engine handles ~line j acc
  | Some "shed" ->
      (* Advisory provenance only: the degraded rates a shed decision
         selected also ride in the following exec event's rates field,
         which is what gets re-executed and compared — so shed events
         are counted and skipped, never replayed. *)
      { acc with rp_sheds = acc.rp_sheds + 1 }
  | Some other -> corrupt line (Printf.sprintf "unknown event kind %S" other)
  | None -> corrupt line "missing string field \"ev\""

let empty_report =
  { rp_registers = 0;
    rp_skipped = 0;
    rp_executions = 0;
    rp_matched = 0;
    rp_sheds = 0;
    rp_mismatches = [] }

let run_lines ?engine lines =
  let engine = match engine with Some e -> e | None -> Engine.create () in
  let handles = Hashtbl.create 16 in
  let acc = ref empty_report in
  let line = ref 0 in
  Seq.iter
    (fun raw ->
      incr line;
      if String.trim raw <> "" then
        acc := replay_line engine handles ~line:!line raw !acc)
    lines;
  !acc

let rec lines_of_channel ic () =
  match input_line ic with
  | line -> Seq.Cons (line, lines_of_channel ic)
  | exception End_of_file -> Seq.Nil

let run_channel ?engine ic = run_lines ?engine (lines_of_channel ic)

let run_file ?engine path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      run_channel ?engine ic)

let run_string ?engine s =
  run_lines ?engine (String.split_on_char '\n' s |> List.to_seq)
