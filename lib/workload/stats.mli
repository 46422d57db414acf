(** Latency/throughput accounting for workload runs. *)

type t

val create : unit -> t
(** An empty accumulator. *)

val add : t -> float -> unit
(** Record one sample (seconds). *)

val count : t -> int
(** Samples recorded so far. *)

val mean : t -> float
(** 0.0 when empty. *)

val percentile : t -> float -> float
(** [percentile t 0.99] — nearest-rank percentile; 0.0 when empty.
    @raise Invalid_argument if the fraction is outside [0, 1]. *)

val min : t -> float
(** Smallest sample; 0.0 when empty. *)

val clear : t -> unit
(** Forget every sample. *)
