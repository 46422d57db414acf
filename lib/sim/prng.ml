type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64 output function: one additive step plus two xor-shift-multiply
   mixing rounds (Steele, Lea & Flood, OOPSLA'14). *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = next_int64 t }

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t bound =
  assert (bound > 0.);
  (* 53 random bits mapped to [0,1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  let unit = Int64.to_float bits /. 9007199254740992.0 in
  unit *. bound

let bool t = Int64.equal (Int64.logand (next_int64 t) 1L) 1L

let exponential t ~mean =
  assert (mean > 0.);
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
