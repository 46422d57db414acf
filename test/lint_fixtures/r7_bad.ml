(* R7/typed-R1 fixture: wall clock laundered through a two-module alias
   chain.  The source text shows only [V.gettimeofday]; the engine resolves
   V -> U -> Unix and flags the occurrence (R1) plus its reachability from
   an entry-scope caller (R7). *)

module U = Unix
module V = U

let now () = V.gettimeofday ()

let step () = now () +. 1.0
