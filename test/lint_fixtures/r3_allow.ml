(* R3 fixture: an unannotated in-place op inside a function that the
   allowlist ([--owned-allow recompute] or [R3_allow.recompute]) covers. *)

(* stub of the project's vector clock, so the fixture typechecks alone *)
module Vclock = struct
  type t = int array

  let set_into (_ : t) (_ : int) (_ : int) = ()
  let max_into (_ : t) (_ : t) = ()
  let blit ~src:(_ : t) ~dst:(_ : t) = ()
  let unsafe_of_array (a : int array) : t = a
end

let recompute row = Vclock.unsafe_of_array row
