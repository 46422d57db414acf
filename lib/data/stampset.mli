(** Sorted multiset of integer stamps.

    Backs the parked-writer index on each node: the set of apply stamps of
    update transactions that are applied but not yet externally committed.
    The read path queries it once or twice per read ([min_elt],
    [first_above], [exists_leq]); insertions and removals happen once per
    update transaction.  Duplicate stamps are permitted ([remove] drops one
    occurrence). *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val add : t -> int -> unit

val remove : t -> int -> bool
(** Remove one occurrence; [false] if absent. *)

val mem : t -> int -> bool

val min_elt : t -> int option
(** O(1). *)

val first_above : t -> int -> int option
(** Smallest element strictly greater than the argument; O(log n). *)

val exists_leq : t -> int -> bool
(** Some element <= the argument; O(1). *)

val exists_below : t -> int -> bool
(** Some element < the argument; O(1). *)

val to_list : t -> int list
(** Ascending. *)
