(* The state is one SplitMix64 word held unboxed in 8 bytes.  A
   [mutable int64] field boxes on every write; [Bytes.get_int64_ne] /
   [set_int64_ne] read and write the raw word, so a draw whose mixing
   is inlined below keeps the state, the mixed word and the float in
   registers and allocates nothing.  Callers in other modules get no
   cross-module inlining (dev builds are [-opaque]), so every entry
   point that returns an immediate ([bernoulli], [int], [bool]) inlines
   the whole draw itself. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))
let copy = Bytes.copy

(* Advance the state by the golden gamma and mix it: one draw. *)
let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  mix s

let bits64 t = next t
let split t = of_state (next t)

let derive t i =
  if i < 0 then invalid_arg "Rng.derive: negative stream index";
  of_state
    (mix (Int64.add (Bytes.get_int64_ne t 0) (Int64.mul golden (Int64.of_int (i + 1)))))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub (Int64.sub Int64.max_int bound64) 1L in
  let v = ref (-1) in
  while !v < 0 do
    let r = Int64.shift_right_logical (next t) 1 in
    let m = Int64.rem r bound64 in
    if Int64.sub r m <= limit then v := Int64.to_int m
  done;
  !v

(* 53 top bits -> [0,1). *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. (1.0 /. 9007199254740992.0)

let float t = unit_float t
let float_range t lo hi = lo +. ((hi -. lo) *. unit_float t)
let bool t = Int64.logand (next t) 1L = 1L
let bernoulli t p = unit_float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then
    invalid_arg (Printf.sprintf "Rng.sample_without_replacement: k=%d n=%d" k n);
  (* Floyd's algorithm. *)
  let chosen = Hashtbl.create (2 * k) in
  let out = Vec.create ~capacity:k () in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    let pick = if Hashtbl.mem chosen r then j else r in
    Hashtbl.replace chosen pick ();
    Vec.push out pick
  done;
  let a = Vec.to_array out in
  shuffle t a;
  a
