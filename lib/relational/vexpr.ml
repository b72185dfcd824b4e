(* Vectorized expression compilation: an {!Expr.t} bound against columnar
   storage becomes typed per-index closures reading {!Column} data
   directly — no [Tuple.t] materialization, no [Value.t] boxing on the
   scan path.

   Parity with the row engine ({!Expr.compile}) is exact, which the
   QCheck suite checks bit-for-bit.  The row path's observable effects
   are raises, and they obey two rules this compiler must reproduce:

   - every node of the expression tree is evaluated on every row (SQL
     NULLs do not short-circuit: [Null + (x / 0)] raises because the
     division is still computed), in OCaml's right-to-left argument
     order (the [b] side of a binary node runs before the [a] side);
   - [Value.div] checks NULL before the zero divisor, so [Null / 0] is
     NULL, not an error.

   To honor both, each compiled node separates a {e null closure} — runs
   once per row, carries all the node's effects (nested
   division-by-zero) in row-path order — from a {e value closure} that
   is pure and may only be called when the null closure returned false.
   Three-valued boolean nodes fuse the two into one tri-state closure.

   Anything whose row-path behavior depends on per-row dynamic typing in
   a way a static compile can't mirror (e.g. arithmetic on a string
   column raises only on non-NULL rows) compiles to [None]; callers fall
   back to the row engine. *)

type vec =
  | VF of (int -> float) * (int -> bool)
  | VI of (int -> int) * (int -> bool)
  | VS of (int -> string) * (int -> bool)
  | VB of (int -> int)  (** tri-state: 0 = false, 1 = true, 2 = NULL *)
  | VNull of (int -> unit)
      (** statically NULL; the closure carries the row-path effects of
          the subtree (a literal NULL has none, [Null + e] has [e]'s) *)

let no_null _ = false
let no_eff _ = ()

(* The effects of evaluating a node on one row, regardless of result. *)
let eff_of = function
  | VF (_, nl) | VI (_, nl) | VS (_, nl) -> fun i -> ignore (nl i)
  | VB g -> fun i -> ignore (g i)
  | VNull e -> e

let div_by_zero () = raise (Value.Type_error "division by zero")

let cmp_result op c =
  match op with
  | Expr.Eq -> c = 0
  | Expr.Neq -> c <> 0
  | Expr.Lt -> c < 0
  | Expr.Le -> c <= 0
  | Expr.Gt -> c > 0
  | Expr.Ge -> c >= 0

(* Lift a numeric operand to float (row path: [Value.to_float]). *)
let as_float = function
  | VF (v, nl) -> Some (v, nl)
  | VI (v, nl) -> Some ((fun i -> float_of_int (v i)), nl)
  | _ -> None

let as_tri = function
  | VB g -> Some g
  | VNull e -> Some (fun i -> e i; 2)
  | _ -> None

(* Combined null closure of a binary node: evaluate the [b] side first,
   as the row path does ([g (fa tup) (fb tup)] runs [fb] first). *)
let null2 na nb i =
  let rb = nb i in
  let ra = na i in
  ra || rb

let bin_int op va vb na nb =
  match op with
  | Expr.Add -> VI ((fun i -> va i + vb i), null2 na nb)
  | Expr.Sub -> VI ((fun i -> va i - vb i), null2 na nb)
  | Expr.Mul -> VI ((fun i -> va i * vb i), null2 na nb)
  | Expr.Div ->
      let nl i =
        let rb = nb i in
        let ra = na i in
        if ra || rb then true
        else if vb i = 0 then div_by_zero ()
        else false
      in
      VI ((fun i -> va i / vb i), nl)

let bin_float op va vb na nb =
  match op with
  | Expr.Add -> VF ((fun i -> va i +. vb i), null2 na nb)
  | Expr.Sub -> VF ((fun i -> va i -. vb i), null2 na nb)
  | Expr.Mul -> VF ((fun i -> va i *. vb i), null2 na nb)
  | Expr.Div ->
      (* Row path: NULL first, then the zero-divisor check ([Int 0] and
         [Float 0.0] both reach it as 0.0 here; NaN compares unequal and
         divides through, as in the row engine). *)
      let nl i =
        let rb = nb i in
        let ra = na i in
        if ra || rb then true
        else if vb i = 0.0 then div_by_zero ()
        else false
      in
      VF ((fun i -> va i /. vb i), nl)

let rec compile schema cols expr =
  match expr with
  | Expr.Col name -> begin
      match Schema.find_index schema name with
      | None -> None (* fallback raises Bind_error, as the row path does *)
      | Some j ->
          let col = cols.(j) in
          let nl i = Column.is_null col i in
          Some
            (match Column.ty col with
            | Value.TFloat -> VF ((fun i -> Column.get_float col i), nl)
            | Value.TInt -> VI ((fun i -> Column.get_int col i), nl)
            | Value.TStr -> VS ((fun i -> Column.get_string col i), nl)
            | Value.TBool ->
                VB (fun i -> if Column.is_null col i then 2 else Column.get_int col i))
    end
  | Expr.Lit v ->
      Some
        (match v with
        | Value.Null -> VNull no_eff
        | Value.Int x -> VI ((fun _ -> x), no_null)
        | Value.Float x -> VF ((fun _ -> x), no_null)
        | Value.Str s -> VS ((fun _ -> s), no_null)
        | Value.Bool b -> VB (fun _ -> if b then 1 else 0))
  | Expr.Neg e -> begin
      match compile schema cols e with
      | Some (VI (v, nl)) -> Some (VI ((fun i -> -v i), nl))
      | Some (VF (v, nl)) -> Some (VF ((fun i -> -.(v i)), nl))
      | Some (VNull eff) -> Some (VNull eff)
      | Some (VS _ | VB _) | None -> None
    end
  | Expr.Bin (op, a, b) -> begin
      match (compile schema cols a, compile schema cols b) with
      | None, _ | _, None -> None
      (* NULL wins over type errors in [Value.div]/[arith], so a
         statically NULL operand makes the whole node NULL — but the
         other side is still evaluated. *)
      | Some ((VNull _) as ca), Some cb | Some ca, Some ((VNull _) as cb) ->
          let ea = eff_of ca and eb = eff_of cb in
          Some (VNull (fun i -> eb i; ea i))
      | Some (VI (va, na)), Some (VI (vb, nb)) -> Some (bin_int op va vb na nb)
      | Some ca, Some cb -> begin
          match (as_float ca, as_float cb) with
          | Some (va, na), Some (vb, nb) -> Some (bin_float op va vb na nb)
          | _ -> None (* string/bool arithmetic raises only on non-NULL rows *)
        end
    end
  | Expr.Cmp (op, a, b) -> begin
      match (compile schema cols a, compile schema cols b) with
      | None, _ | _, None -> None
      | Some ca, Some cb ->
          let tri mk = VB mk in
          let always_null () =
            (* [compare_sql] yields None: NULL operand or incomparable
               families.  Constant NULL result, operand effects kept. *)
            let ea = eff_of ca and eb = eff_of cb in
            tri (fun i -> eb i; ea i; 2)
          in
          Some
            (match (ca, cb) with
            | VNull _, _ | _, VNull _ -> always_null ()
            | VI (va, na), VI (vb, nb) ->
                tri (fun i ->
                    let rb = nb i in
                    let ra = na i in
                    if ra || rb then 2
                    else if cmp_result op (Int.compare (va i) (vb i)) then 1
                    else 0)
            | (VI _ | VF _), (VI _ | VF _) ->
                let va, na = Option.get (as_float ca)
                and vb, nb = Option.get (as_float cb) in
                tri (fun i ->
                    let rb = nb i in
                    let ra = na i in
                    if ra || rb then 2
                    else if cmp_result op (Float.compare (va i) (vb i)) then 1
                    else 0)
            | VS (va, na), VS (vb, nb) ->
                tri (fun i ->
                    let rb = nb i in
                    let ra = na i in
                    if ra || rb then 2
                    else if cmp_result op (String.compare (va i) (vb i)) then 1
                    else 0)
            | VB ga, VB gb ->
                tri (fun i ->
                    let b = gb i in
                    let a = ga i in
                    if a = 2 || b = 2 then 2
                    else if cmp_result op (Bool.compare (a = 1) (b = 1)) then 1
                    else 0)
            | _ -> always_null ())
    end
  | Expr.And (a, b) -> begin
      match (compile schema cols a, compile schema cols b) with
      | Some ca, Some cb -> begin
          match (as_tri ca, as_tri cb) with
          | Some ga, Some gb ->
              Some
                (VB
                   (fun i ->
                     let b = gb i in
                     let a = ga i in
                     if a = 0 || b = 0 then 0
                     else if a = 1 && b = 1 then 1
                     else 2))
          | _ -> None (* non-boolean operand raise depends on the other side *)
        end
      | _ -> None
    end
  | Expr.Or (a, b) -> begin
      match (compile schema cols a, compile schema cols b) with
      | Some ca, Some cb -> begin
          match (as_tri ca, as_tri cb) with
          | Some ga, Some gb ->
              Some
                (VB
                   (fun i ->
                     let b = gb i in
                     let a = ga i in
                     if a = 1 || b = 1 then 1
                     else if a = 0 && b = 0 then 0
                     else 2))
          | _ -> None
        end
      | _ -> None
    end
  | Expr.Not e -> begin
      match Option.bind (compile schema cols e) as_tri with
      | Some g ->
          Some (VB (fun i -> match g i with 0 -> 1 | 1 -> 0 | _ -> 2))
      | None -> None
    end

let predicate schema cols expr =
  match compile schema cols expr with
  | None -> None
  | Some (VB g) -> Some (fun i -> g i = 1)
  | Some (VNull eff) -> Some (fun i -> eff i; false)
  (* Row path ([bind_predicate]) maps any non-Bool result to false —
     after evaluating it, so division effects still fire. *)
  | Some (VF (_, nl) | VI (_, nl) | VS (_, nl)) ->
      Some (fun i -> ignore (nl i); false)
