open Gus_relational

type source =
  | Tpch of { scale : float; seed : int }
  | Skewed of { scale : float; seed : int; part_skew : float; price_skew : float }
  | Csv_dir of string
  | Snapshot of string
  | In_memory of string

let source_to_string = function
  | Tpch { scale; seed } -> Printf.sprintf "tpch(scale=%g,seed=%d)" scale seed
  | Skewed { scale; seed; part_skew; price_skew } ->
      Printf.sprintf "synthetic(scale=%g,seed=%d,part_skew=%g,price_skew=%g)"
        scale seed part_skew price_skew
  | Csv_dir dir -> Printf.sprintf "csv(%s)" dir
  | Snapshot path -> Printf.sprintf "snapshot(%s)" path
  | In_memory what -> Printf.sprintf "memory(%s)" what

(* Machine-readable source rendering, field-compatible with the serving
   protocol's [register] request (Wire.source_of_request parses it
   back) — what the journal stores so `gusdb replay` can rebuild the
   dataset.  [In_memory] has no build recipe; replay rejects it unless
   the dataset is already present. *)
let source_json src =
  let num v = Json.Num v in
  Json.to_string
    (match src with
    | Tpch { scale; seed } ->
        Json.Obj
          [ ("source", Json.Str "tpch");
            ("scale", num scale);
            ("seed", num (float_of_int seed)) ]
    | Skewed { scale; seed; part_skew; price_skew } ->
        Json.Obj
          [ ("source", Json.Str "synthetic");
            ("scale", num scale);
            ("seed", num (float_of_int seed));
            ("part_skew", num part_skew);
            ("price_skew", num price_skew) ]
    | Csv_dir dir ->
        Json.Obj [ ("source", Json.Str "csv"); ("dir", Json.Str dir) ]
    | Snapshot path ->
        Json.Obj [ ("source", Json.Str "snapshot"); ("path", Json.Str path) ]
    | In_memory what ->
        Json.Obj [ ("source", Json.Str "memory"); ("what", Json.Str what) ])

type entry = {
  dataset : string;
  version : int;
  source : source;
  db : Database.t;
}

type t = {
  entries : (string, entry) Hashtbl.t;
  mutable hooks : (string -> unit) list;  (* reverse registration order *)
}

let create () = { entries = Hashtbl.create 8; hooks = [] }
let on_mutate t hook = t.hooks <- hook :: t.hooks
let fire t name = List.iter (fun hook -> hook name) (List.rev t.hooks)

let register t ~name ~source db =
  let version =
    match Hashtbl.find_opt t.entries name with
    | Some prev -> prev.version + 1
    | None -> 1
  in
  let entry = { dataset = name; version; source; db } in
  Hashtbl.replace t.entries name entry;
  fire t name;
  entry

(* The five generator relations, for CSV loading (written by `gusdb gen`). *)
let tpch_schemas =
  [ ("customer", Gus_tpch.Tpch.customer_schema);
    ("orders", Gus_tpch.Tpch.orders_schema);
    ("lineitem", Gus_tpch.Tpch.lineitem_schema);
    ("part", Gus_tpch.Tpch.part_schema);
    ("supplier", Gus_tpch.Tpch.supplier_schema) ]

let build = function
  | Tpch { scale; seed } -> Gus_tpch.Tpch.generate ~seed ~scale ()
  | Skewed { scale; seed; part_skew; price_skew } ->
      let config =
        { Gus_tpch.Tpch.default_config with part_skew; price_skew }
      in
      Gus_tpch.Tpch.generate ~config ~seed ~scale ()
  | Csv_dir dir ->
      let db = Database.create () in
      List.iter
        (fun (name, schema) ->
          let path = Filename.concat dir (name ^ ".csv") in
          if Sys.file_exists path then
            Database.add db (Csv.load ~path ~name schema))
        tpch_schemas;
      if Database.names db = [] then
        failwith (Printf.sprintf "no known CSVs found in %s" dir);
      db
  | Snapshot path -> Snapshot.load ~path
  | In_memory _ ->
      invalid_arg "Catalog.load: In_memory sources have no build recipe"

let load t ~name ~source = register t ~name ~source (build source)
let find t name = Hashtbl.find_opt t.entries name

exception Unknown_dataset of string

let find_exn t name =
  match find t name with Some e -> e | None -> raise (Unknown_dataset name)

let remove t name =
  let was = Hashtbl.mem t.entries name in
  if was then begin
    Hashtbl.remove t.entries name;
    fire t name
  end;
  was

let names t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b -> compare a.dataset b.dataset)
