type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

exception Type_error of string

type ty = TBool | TInt | TFloat | TStr

let ty_name = function
  | TBool -> "bool"
  | TInt -> "int"
  | TFloat -> "float"
  | TStr -> "string"

let type_of = function
  | Null -> None
  | Bool _ -> Some TBool
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Str _ -> Some TStr

let conforms v ty =
  match type_of v with None -> true | Some t -> t = ty

let is_null = function Null -> true | _ -> false

let describe = function
  | Null -> "null"
  | Bool b -> Printf.sprintf "bool %b" b
  | Int i -> Printf.sprintf "int %d" i
  | Float f -> Printf.sprintf "float %g" f
  | Str s -> Printf.sprintf "string %S" s

let type_error op v =
  raise (Type_error (Printf.sprintf "%s applied to %s" op (describe v)))

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> type_error "to_float" v

let to_int = function Int i -> i | v -> type_error "to_int" v
let to_bool = function Bool b -> b | v -> type_error "to_bool" v
let to_string_exn = function Str s -> s | v -> type_error "to_string" v

let arith op_name int_op float_op a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (int_op x y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (float_op (to_float a) (to_float b))
  | v, (Int _ | Float _) -> type_error op_name v
  | _, v -> type_error op_name v

let add a b = arith "+" ( + ) ( +. ) a b
let sub a b = arith "-" ( - ) ( -. ) a b
let mul a b = arith "*" ( * ) ( *. ) a b

let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _, Int 0 -> raise (Type_error "division by zero")
  | _, Float 0.0 -> raise (Type_error "division by zero")
  | Int x, Int y -> Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (to_float a /. to_float b)
  | v, (Int _ | Float _) -> type_error "/" v
  | _, v -> type_error "/" v

let neg = function
  | Null -> Null
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | v -> type_error "unary -" v

let compare_sql a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Bool x, Bool y -> Some (Bool.compare x y)
  | Int x, Int y -> Some (Int.compare x y)
  | (Int _ | Float _), (Int _ | Float _) ->
      Some (Float.compare (to_float a) (to_float b))
  | Str x, Str y -> Some (String.compare x y)
  | _ -> None

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Int x, Float y | Float y, Int x -> float_of_int x = y
  | Str x, Str y -> x = y
  | _ -> false

let hash = function
  | Null -> 0x6e756c6c
  | Bool b -> if b then 3 else 5
  | Int i -> Int64.to_int (Gus_util.Hashing.hash_int ~seed:7 i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Int64.to_int (Gus_util.Hashing.hash_int ~seed:7 (int_of_float f))
      else Hashtbl.hash f
  | Str s -> Int64.to_int (Gus_util.Hashing.hash_string ~seed:11 s)

(* Rendered without a formatter: SQL GROUP BY renders every key of
   every sampled row. *)
let to_display = function
  | Null -> "NULL"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

let pp ppf v = Format.pp_print_string ppf (to_display v)
