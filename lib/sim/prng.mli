(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in the simulator flows through values of type {!t} so that
    a run is fully reproducible from its seed.  The generator is splittable:
    {!split} derives an independent stream, which lets each client / node own
    its own stream without cross-talk when the event order changes. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator and advances
    [t]. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean (> 0). *)

val pick : t -> 'a array -> 'a
(** Uniform choice among the elements of a non-empty array. *)
