(* The SplitMix64 state lives unboxed in 8 bytes: reading and writing
   it through [Bytes.get_int64_le]/[set_int64_le] inside an inlined
   step keeps every intermediate [int64] in a register, so a draw
   allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0 s;
  g

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next g =
  let s = Int64.add (Bytes.get_int64_le g 0) golden_gamma in
  Bytes.set_int64_le g 0 s;
  mix s

let bits64 g = next g

let bits53 g = Int64.to_int (Int64.shift_right_logical (next g) 11)

let split g = of_state (next g)

let derive seed i =
  if i < 0 then invalid_arg "Prng.derive: negative index";
  (* Two finalizer rounds keep child seeds statistically independent of
     both the parent seed and neighbouring indices (SplitMix64's
     stream-splitting construction). *)
  let z = mix (Int64.add (Int64.of_int seed) golden_gamma) in
  let z = mix (Int64.logxor z (Int64.mul (Int64.of_int (i + 1)) 0x94D049BB133111EBL)) in
  Int64.to_int (mix z) land max_int

let stream ~seed ~path = create (List.fold_left derive seed path)

let int g n =
  if n <= 0 then invalid_arg "Prng.int: n <= 0";
  (* Rejection sampling on the top 62 bits keeps the draw unbiased. *)
  let mask = max_int in
  let rec go () =
    let v = Int64.to_int (Int64.shift_right_logical (next g) 2) land mask in
    let r = v mod n in
    if v - r + (n - 1) >= 0 then r else go ()
  in
  go ()

let float g x =
  if x <= 0. then invalid_arg "Prng.float: x <= 0";
  x *. (float_of_int (bits53 g) /. 9007199254740992.0 (* 2^53 *))

let threshold rate =
  if Float.is_nan rate || rate < 0. || rate > 1. then
    invalid_arg "Prng.threshold: rate outside [0, 1]";
  int_of_float (Float.ceil (rate *. 9007199254740992.0))

let below g th = bits53 g < th

let bool g = Int64.logand (next g) 1L = 1L

let exponential g rate =
  if rate <= 0. then invalid_arg "Prng.exponential: rate <= 0";
  let u = 1.0 -. float g 1.0 in
  -.log u /. rate

let shuffle g arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
