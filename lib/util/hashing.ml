let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] mix_int h k =
  let h = (h lxor k) * 0x3F58476D1CE4E5B9 in
  let h = (h lxor (h lsr 29)) * 0x14D049BB133111EB in
  h lxor (h lsr 32)

let combine a b =
  (* Boost-style combine strengthened with a full mix. *)
  mix64 (Int64.add (Int64.mul a 0x9E3779B97F4A7C15L) (Int64.logxor b (Int64.shift_left a 13)))

let hash_int ~seed x = combine (mix64 (Int64.of_int seed)) (mix64 (Int64.of_int x))

let hash_string ~seed s =
  let h = ref (mix64 (Int64.of_int seed)) in
  String.iter (fun c -> h := combine !h (Int64.of_int (Char.code c))) s;
  !h

let prf_float ~seed id =
  let h = hash_int ~seed id in
  let bits = Int64.shift_right_logical h 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)
