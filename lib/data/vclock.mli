(** Vector clocks.

    SSS associates a vector clock of size [n] (number of nodes) with every
    transaction, node, and committed version.  The default operations are
    non-destructive and clocks are immutable once shared: a clock that has
    been stored in a message, a log entry, or any published field must never
    be mutated.

    For the steady-state hot paths there are explicit in-place variants
    ([max_into], [set_into], [blit]) restricted to clocks the caller
    exclusively owns (allocated itself and not yet shared), and
    [unsafe_of_array] to adopt an owned buffer without a copy.  [max] may
    return one of its arguments (no copy) when it already dominates the
    other — safe under the same immutability contract. *)

type t

val zero : int -> t
(** [zero n] is the all-zero clock of size [n]. *)

val of_array : int array -> t
(** Copies its argument. *)

val unsafe_of_array : int array -> t
(** Adopts the array without copying.  The caller must relinquish
    ownership: the array must never be written again. *)

val to_array : t -> int array
(** Returns a fresh copy. *)

val copy : t -> t

val size : t -> int

val get : t -> int -> int

val set : t -> int -> int -> t
(** [set vc i v] is a copy of [vc] whose [i]-th entry is [v]. *)

val set_into : t -> int -> int -> unit
(** In-place [set]; the clock must be exclusively owned by the caller. *)

val bump : t -> int -> t
(** [bump vc i] increments entry [i]. *)

val max : t -> t -> t
(** Entry-wise maximum.  Sizes must agree.  When one argument dominates
    the other it is returned as-is (no allocation). *)

val max_into : t -> t -> unit
(** [max_into dst src] folds [src] into [dst] in place; [dst] must be
    exclusively owned by the caller. *)

val blit : src:t -> dst:t -> unit
(** Overwrite the exclusively-owned [dst] with the entries of [src]. *)

val leq : t -> t -> bool
(** [leq a b] iff every entry of [a] is <= the matching entry of [b]. *)

val lt : t -> t -> bool
(** [lt a b] iff [leq a b] and they differ somewhere. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order (length, then lexicographic) used only for deterministic
    tie-breaking; not the causal partial order. *)

val concurrent : t -> t -> bool
(** Neither [leq a b] nor [leq b a]. *)

val to_string : t -> string
