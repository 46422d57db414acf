(** Fixed-bucket geometric histograms over virtual-time durations.

    Every histogram has the same 48 buckets with lower edge [lo = 1e-7]
    (100 ns) and ratio 2: bucket 0 holds values below [lo], bucket
    [i >= 1] holds [lo * 2^(i-1) <= v < lo * 2^i], and the last bucket
    additionally absorbs everything larger.  That spans nanoseconds to
    hours of virtual time, which covers every latency the simulator can
    produce.

    Recording is allocation-free after creation and never consults a clock
    or PRNG, so an enabled histogram cannot perturb a trajectory.
    Percentiles are bucket-resolution estimates: the reported quantile is
    the upper edge of the bucket containing the rank, clamped to the
    largest value actually observed. *)

type t

val create : unit -> t
(** An empty histogram. *)

val observe : t -> float -> unit
(** Record one (non-negative) value. *)

val count : t -> int
val sum : t -> float

val mean : t -> float
(** [0.0] when empty. *)

val min_value : t -> float
(** Smallest observed value; [0.0] when empty. *)

val max_value : t -> float
(** Largest observed value; [0.0] when empty. *)

val bucket_of : float -> int
(** Index of the bucket a value falls in. *)

val bucket_bounds : int -> float * float
(** [(lower, upper)] edges of a bucket; bucket 0's lower edge is [0.0] and
    the last bucket's upper edge is [infinity]. *)

val counts : t -> int array
(** A copy of the per-bucket counts. *)

val percentile : t -> float -> float
(** [percentile t p] for [0.0 < p <= 1.0]; [0.0] when empty. *)

val merge : t -> t -> t
(** Combine two histograms into a fresh one. *)

val to_json : t -> string
(** [{"count":..,"mean":..,"min":..,"max":..,"p50":..,"p95":..,"p99":..}] *)
