type severity = Error | Warning | Hint

type code =
  | Self_join
  | Union_skeleton_mismatch
  | Wor_over_derived
  | Block_over_derived
  | Hash_over_derived
  | With_replacement
  | Distinct_over_sample
  | Probability_out_of_range
  | Zero_inclusion_probability
  | Small_inclusion_probability
  | Redundant_sampler
  | Sample_select_pushdown
  | Analysis_limit
  | Enumeration_cost
  | Variance_bound
  | Zero_coefficients
  | Stacked_samplers
  | Wor_over_deterministic_derived

let all_codes =
  [ Self_join;
    Union_skeleton_mismatch;
    Wor_over_derived;
    Block_over_derived;
    Hash_over_derived;
    With_replacement;
    Distinct_over_sample;
    Probability_out_of_range;
    Zero_inclusion_probability;
    Small_inclusion_probability;
    Redundant_sampler;
    Sample_select_pushdown;
    Analysis_limit;
    Enumeration_cost;
    Variance_bound;
    Zero_coefficients;
    Stacked_samplers;
    Wor_over_deterministic_derived ]

let code_id = function
  | Self_join -> "GUS001"
  | Union_skeleton_mismatch -> "GUS002"
  | Wor_over_derived -> "GUS003"
  | Block_over_derived -> "GUS004"
  | Hash_over_derived -> "GUS005"
  | With_replacement -> "GUS006"
  | Distinct_over_sample -> "GUS007"
  | Probability_out_of_range -> "GUS008"
  | Zero_inclusion_probability -> "GUS009"
  | Small_inclusion_probability -> "GUS010"
  | Redundant_sampler -> "GUS011"
  | Sample_select_pushdown -> "GUS012"
  | Analysis_limit -> "GUS013"
  | Enumeration_cost -> "GUS014"
  | Variance_bound -> "GUS015"
  | Zero_coefficients -> "GUS016"
  | Stacked_samplers -> "GUS017"
  | Wor_over_deterministic_derived -> "GUS018"

let severity_of_code = function
  | Self_join | Union_skeleton_mismatch | Wor_over_derived
  | Block_over_derived | Hash_over_derived | With_replacement
  | Distinct_over_sample | Probability_out_of_range
  | Zero_inclusion_probability | Analysis_limit
  | Wor_over_deterministic_derived ->
      Error
  | Small_inclusion_probability | Enumeration_cost -> Warning
  | Redundant_sampler | Sample_select_pushdown | Variance_bound
  | Zero_coefficients | Stacked_samplers ->
      Hint

let title = function
  | Self_join -> "self-join: a relation appears on both sides of a join"
  | Union_skeleton_mismatch -> "union of samples of two different expressions"
  | Wor_over_derived -> "WOR sampling over a derived or already-sampled input"
  | Block_over_derived -> "block sampling not directly over a base table"
  | Hash_over_derived -> "hash-Bernoulli sampling over a derived input"
  | With_replacement -> "with-replacement sampling is not a GUS method"
  | Distinct_over_sample -> "DISTINCT above a non-identity GUS"
  | Probability_out_of_range -> "inclusion probability outside its legal range"
  | Zero_inclusion_probability -> "degenerate estimator: a = 0"
  | Small_inclusion_probability -> "tiny sampling fraction: high-variance estimator"
  | Redundant_sampler -> "redundant sampler: keeps every tuple (identity GUS)"
  | Sample_select_pushdown -> "sample could be pushed below the selection"
  | Analysis_limit -> "plan exceeds the analyzer's implementation limits"
  | Enumeration_cost -> "coefficient enumeration is expensive for this plan"
  | Variance_bound -> "large worst-case relative variance bound"
  | Zero_coefficients -> "provably-zero coefficients: kernel skips those passes"
  | Stacked_samplers -> "stacked Bernoulli samplers compose into one"
  | Wor_over_deterministic_derived ->
      "WOR over a deterministic derived input: N not known statically"

let citation = function
  | Self_join -> "Prop. 6 (disjoint lineage); Section 9"
  | Union_skeleton_mismatch -> "Prop. 7"
  | Wor_over_derived -> "Figure 1 (WOR needs a fixed N); Section 9"
  | Block_over_derived -> "Section 3 (block sampling at base granularity)"
  | Hash_over_derived -> "Section 7 (lineage-keyed sampling)"
  | With_replacement -> "Section 9 (WR is not a randomized filter)"
  | Distinct_over_sample -> "Section 9 (DISTINCT)"
  | Probability_out_of_range -> "Def. 1 (GUS probabilities)"
  | Zero_inclusion_probability -> "Theorem 1 (scale-up 1/a)"
  | Small_inclusion_probability -> "Theorem 1 (variance terms c_S/a\xc2\xb2)"
  | Redundant_sampler -> "Prop. 4 (identity GUS)"
  | Sample_select_pushdown -> "Prop. 5 (selection commutes with GUS)"
  | Analysis_limit -> "Section 5 (2\xe2\x81\xbf coefficient arrays)"
  | Enumeration_cost -> "Section 5 (2\xe2\x81\xbf coefficient passes)"
  | Variance_bound -> "Theorem 1 (worst-case Var/E\xc2\xb2 for f \xe2\x89\xa5 0)"
  | Zero_coefficients -> "Prop. 6 (product-form zero coefficients)"
  | Stacked_samplers -> "Prop. 8 (compaction)"
  | Wor_over_deterministic_derived ->
      "Figure 1 (WOR needs a fixed N); Section 9"

type path = int list

let path_to_string = function
  | [] -> "$"
  | p -> "$." ^ String.concat "." (List.map string_of_int p)

let rec compare_path a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a', y :: b' -> if x <> y then compare x y else compare_path a' b'

type t = {
  code : code;
  path : path;
  node : string;
  message : string;
  fix : Fix.t option;
}

let make ?fix ~code ~path ~node message = { code; path; node; message; fix }
let severity d = severity_of_code d.code

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

let pp ppf d =
  Format.fprintf ppf "%s %-7s at %s (%s): %s [%s]" (code_id d.code)
    (severity_label (severity d))
    (path_to_string d.path) d.node d.message (citation d.code);
  match d.fix with
  | None -> ()
  | Some f -> Format.fprintf ppf " (fix: %s)" f.Fix.summary

let to_string d = Format.asprintf "%a" pp d

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  let fix =
    match d.fix with
    | None -> ""
    | Some f ->
        Printf.sprintf ", \"fix\": {\"action\": \"%s\", \"summary\": \"%s\"}"
          (Fix.action_label f.Fix.action)
          (json_escape f.Fix.summary)
  in
  Printf.sprintf
    "{\"code\": \"%s\", \"severity\": \"%s\", \"path\": \"%s\", \"node\": \
     \"%s\", \"message\": \"%s\", \"citation\": \"%s\"%s}"
    (code_id d.code)
    (severity_label (severity d))
    (path_to_string d.path) (json_escape d.node) (json_escape d.message)
    (json_escape (citation d.code))
    fix
