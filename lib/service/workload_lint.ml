module Lint = Gus_analysis.Lint
module D = Gus_analysis.Diagnostic
module Cost = Gus_analysis.Cost
module Absdom = Gus_analysis.Absdom
open Json

let diagnostic_json (d : D.t) =
  obj
    [ ("code", Some (Str (D.code_id d.D.code)));
      ("severity", Some (Str (D.severity_label (D.severity d))));
      ("path", Some (Str (D.path_to_string d.D.path)));
      ("node", Some (Str d.D.node));
      ("message", Some (Str d.D.message));
      ("citation", Some (Str (D.citation d.D.code)));
      ( "fix",
        Option.map
          (fun f ->
            Obj
              [ ( "action",
                  Str (Gus_analysis.Fix.action_label f.Gus_analysis.Fix.action)
                );
                ("summary", Str f.Gus_analysis.Fix.summary) ])
          d.D.fix ) ]

let analysis_json (a : Lint.analysis) =
  let c = a.Lint.cost in
  Obj
    [ ("a", Num a.Lint.sym.Gus_core.Symalg.a);
      ("class", Str (Absdom.Cls.to_string c.Cost.cls));
      ("relations", Num (float_of_int c.Cost.n_rels));
      ("coefficient_passes", Num (float_of_int c.Cost.passes));
      ("skipped_passes", Num (float_of_int c.Cost.skipped));
      ("est_groups", Num c.Cost.est_groups);
      ("predicted_cost", Num c.Cost.predicted_cost);
      ("variance_bound", Num c.Cost.variance_bound) ]

let severity_label report =
  match (Lint.errors report, Lint.warnings report, Lint.hints report) with
  | _ :: _, _, _ -> "error"
  | [], _ :: _, _ -> "warning"
  | [], [], _ :: _ -> "hint"
  | [], [], [] -> "none"

type outcome =
  | Linted of Lint.report
  | Unparsable of string

type entry = {
  file : string;
  query_index : int;
  sql : string;
  outcome : outcome;
}

type report = {
  dir : string;
  files : int;
  entries : entry list;
}

(* The corpus is every *.sql file under [dir] (recursively), in sorted
   path order so the report — and the cram output — is stable across
   filesystems. *)
let sql_files dir =
  let rec walk acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc name -> walk acc (Filename.concat path name))
        acc
        (let names = Sys.readdir path in
         Array.sort compare names;
         names)
    else if Filename.check_suffix path ".sql" then path :: acc
    else acc
  in
  List.rev (walk [] dir)

(* One file can hold several ';'-terminated statements; '--' starts a
   line comment. *)
let find_sub line pat =
  let n = String.length line and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = pat then Some i
    else go (i + 1)
  in
  go 0

let split_statements text =
  let no_comments =
    String.split_on_char '\n' text
    |> List.map (fun line ->
           match find_sub line "--" with
           | Some i -> String.sub line 0 i
           | None -> line)
    |> String.concat "\n"
  in
  String.split_on_char ';' no_comments
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_one ?config db sql =
  match Gus_sql.Runner.prepare ?lint_config:config db sql with
  | p -> Linted p.Gus_sql.Runner.pr_lint
  | exception Gus_sql.Parser.Error msg -> Unparsable msg
  | exception Gus_sql.Planner.Error msg -> Unparsable msg
  | exception Gus_sql.Lexer.Error { message; _ } ->
      Unparsable ("lexical error: " ^ message)
  | exception Gus_relational.Database.Unknown_relation r ->
      Unparsable ("unknown relation " ^ r)

let run ?config db dir =
  let files = sql_files dir in
  let entries =
    List.concat_map
      (fun file ->
        let rel =
          (* report paths relative to the corpus root, for stable output *)
          let prefix = dir ^ Filename.dir_sep in
          let pl = String.length prefix in
          if String.length file > pl && String.sub file 0 pl = prefix then
            String.sub file pl (String.length file - pl)
          else file
        in
        List.mapi
          (fun i sql ->
            { file = rel;
              query_index = i;
              sql;
              outcome = lint_one ?config db sql })
          (split_statements (read_file file)))
      files
  in
  { dir; files = List.length files; entries }

let count f entries =
  List.fold_left (fun acc e -> acc + f e) 0 entries

let entry_counts e =
  match e.outcome with
  | Unparsable _ -> (0, 0, 0)
  | Linted r ->
      ( List.length (Lint.errors r),
        List.length (Lint.warnings r),
        List.length (Lint.hints r) )

let errors rep =
  count (fun e -> let n, _, _ = entry_counts e in n) rep.entries

let unparsable rep =
  count
    (fun e -> match e.outcome with Unparsable _ -> 1 | Linted _ -> 0)
    rep.entries

(* 0 = every query parsed and linted clean of errors; 1 = at least one
   error-severity finding or unparsable query.  (The CLI reserves 124 for
   "no such corpus directory".)  These are load-bearing for CI gates —
   change them only with a new major protocol version. *)
let exit_code rep = if errors rep = 0 && unparsable rep = 0 then 0 else 1

let by_code rep =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e.outcome with
      | Unparsable _ -> ()
      | Linted r ->
          List.iter
            (fun d ->
              let id = D.code_id d.D.code in
              Hashtbl.replace tbl id
                (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id)))
            r.Lint.diagnostics)
    rep.entries;
  List.filter_map
    (fun code ->
      let id = D.code_id code in
      Option.map (fun n -> (id, Num (float_of_int n))) (Hashtbl.find_opt tbl id))
    D.all_codes

let entry_json e =
  let base =
    [ ("file", Some (Str e.file));
      ("query", Some (Num (float_of_int e.query_index))) ]
  in
  match e.outcome with
  | Unparsable msg ->
      obj
        (base
        @ [ ("status", Some (Str "unparsable")); ("message", Some (Str msg)) ])
  | Linted r ->
      let ne, nw, nh = entry_counts e in
      obj
        (base
        @ [ ("status", Some (Str (if ne > 0 then "error" else "ok")));
            ("severity", Some (Str (severity_label r)));
            ("errors", Some (Num (float_of_int ne)));
            ("warnings", Some (Num (float_of_int nw)));
            ("hints", Some (Num (float_of_int nh)));
            ( "fixable",
              Some (Num (float_of_int (List.length (Lint.fixes r)))) );
            ( "diagnostics",
              if r.Lint.diagnostics = [] then None
              else Some (List (List.map diagnostic_json r.Lint.diagnostics)) );
            ( "analysis",
              Option.map analysis_json r.Lint.analysis ) ])

let to_json rep =
  let sum f =
    count
      (fun e ->
        let ne, nw, nh = entry_counts e in
        f (ne, nw, nh))
      rep.entries
  in
  Obj
    [ ("ok", Bool (exit_code rep = 0));
      ("op", Str "lint-workload");
      ("dir", Str rep.dir);
      ("files", Num (float_of_int rep.files));
      ("queries", Num (float_of_int (List.length rep.entries)));
      ("unparsable", Num (float_of_int (unparsable rep)));
      ("errors", Num (float_of_int (sum (fun (e, _, _) -> e))));
      ("warnings", Num (float_of_int (sum (fun (_, w, _) -> w))));
      ("hints", Num (float_of_int (sum (fun (_, _, h) -> h))));
      ("by_code", Obj (by_code rep));
      ("entries", List (List.map entry_json rep.entries)) ]
