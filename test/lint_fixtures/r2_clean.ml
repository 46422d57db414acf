(* R2 fixture: comparisons that are fine in a hot library — scalar
   operands, monomorphic comparators, or reviewed [@poly_ok] sites. *)

(* stub of the project's id comparators *)
module Ids = struct
  let compare_txn (a : int) b = Int.compare a b
end

let small x = x < 3

let nonempty xs = xs <> []

let within a n = Array.length a > n

let ordered la lb = Int.compare la lb

let clamped x = Int.max 0 x

let typed_bound (x : int) y = x <= y

let sorted xs = List.sort Ids.compare_txn xs

let same_clock vc1 vc2 = (vc1 = vc2 [@poly_ok])

let cold_compare a b = (compare a b [@poly_ok])

let[@poly_ok] cold_path a b = min a b
