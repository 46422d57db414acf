(* R6 fixture: module-level mutable state, shared across domains once runs
   fan out through Sss_par.Pool.  Expected findings, in order: ref,
   Hashtbl.create, {mutable record}, Array.make, lazy, ref (in submodule). *)

(* stub of an expensive immutable builder *)
let build_table () = [ 1; 2; 3 ]

let total_runs = ref 0

let memo = Hashtbl.create 64

type gauge = { mutable current : int; peak : int }

let live_gauge = { current = 0; peak = 0 }

let scratch = Array.make 16 0

let table = lazy (build_table ())

module Counters = struct
  let hits = ref 0
end
