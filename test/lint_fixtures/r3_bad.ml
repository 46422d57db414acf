(* R3 fixture: in-place Vclock operations without an ownership marker.
   Expected findings, in order: set_into, max_into, blit, unsafe_of_array. *)

(* stub of the project's vector clock, so the fixture typechecks alone *)
module Vclock = struct
  type t = int array

  let set_into (_ : t) (_ : int) (_ : int) = ()
  let max_into (_ : t) (_ : t) = ()
  let blit ~src:(_ : t) ~dst:(_ : t) = ()
  let unsafe_of_array (a : int array) : t = a
end

let bump_clock vc i v = Vclock.set_into vc i v

let fold_vote dst src = Vclock.max_into dst src

let overwrite ~src ~dst = Vclock.blit ~src ~dst

let adopt a = Vclock.unsafe_of_array a
