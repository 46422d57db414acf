(* R3 fixture: the same operations, each carrying [@owned] — plus one in a
   function meant to be covered by --owned-allow (see r3_allow.ml). *)

(* stub of the project's vector clock, so the fixture typechecks alone *)
module Vclock = struct
  type t = int array

  let set_into (_ : t) (_ : int) (_ : int) = ()
  let max_into (_ : t) (_ : t) = ()
  let blit ~src:(_ : t) ~dst:(_ : t) = ()
  let unsafe_of_array (a : int array) : t = a
end

let bump_clock vc i v = (Vclock.set_into vc i v [@owned])

let fold_vote dst src = (Vclock.max_into dst src [@owned])

let overwrite ~src ~dst = (Vclock.blit ~src ~dst [@owned])

let adopt a = (Vclock.unsafe_of_array a [@owned])

(* binding-level suppression also works *)
let[@owned] rebuild_row m = Vclock.unsafe_of_array m
