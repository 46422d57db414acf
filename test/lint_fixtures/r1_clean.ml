(* R1 fixture: deterministic equivalents — virtual time and the project
   PRNG — plus benign Sys uses that must not be flagged. *)

(* stubs of the project's simulator clock and PRNG *)
module Sim = struct
  type t = { clock : float }

  let now t = t.clock
end

module Prng = struct
  type t = int

  let int (seed : t) bound = seed mod bound
end

let virtual_now sim = Sim.now sim

let dice rng = Prng.int rng 6

let argv_len () = Array.length Sys.argv
