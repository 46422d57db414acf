(** Sorted multiset of (stamp, transaction) pairs.

    Backs the two writer indexes each node keeps over its prepared entries:
    the commit queue (write-bearing entries not yet applied, by their
    current clock entry at the node) and the parked writers (applied but
    not yet externally committed, by their apply stamp).  Pairs are ordered
    by stamp, then by transaction ({!Ids.compare_txn}, the order of
    {!Ids.pack}); equal stamps are permitted.  The read path queries the
    stamps once or twice per read ([min_stamp], [first_above],
    [exists_leq]); insertions and removals happen a few times per update
    transaction. *)

type t

val create : unit -> t

val length : t -> int

val add : t -> int -> Ids.txn -> unit

val remove : t -> int -> Ids.txn -> bool
(** Remove the pair; [false] if absent. *)

val min_stamp : t -> int option
(** O(1). *)

val min_txn : t -> Ids.txn option
(** The transaction of the least pair; O(1). *)

val first_above : t -> int -> int option
(** Smallest stamp strictly greater than the argument; O(log n). *)

val exists_leq : t -> int -> bool
(** Some stamp <= the argument; O(1). *)

val exists_below : t -> int -> bool
(** Some stamp < the argument; O(1). *)

val exists_above : t -> int -> (Ids.txn -> bool) -> bool
(** Some pair with a stamp strictly greater than the argument whose
    transaction satisfies the predicate. *)

val to_list : t -> (int * Ids.txn) list
(** Ascending. *)
