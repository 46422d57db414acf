(** Structured observability for the simulated cluster: a metrics
    registry (counters, latency histograms, gauges) on virtual time.

    Everything here is passive: recording never draws from a PRNG, never
    schedules simulator events, and never touches a wall clock, so an
    enabled observer cannot change a trajectory — only look at it.  The
    protocols hold an [Obs.t option] and skip every call site when it is
    [None], which keeps the disabled case allocation-free (the
    observer-effect contract pinned by [test/test_obs.ml] and the
    [bench/smoke.sh] gate).

    See docs/OBSERVABILITY.md for the metric naming scheme. *)

type t

val create : unit -> t
(** A fresh, empty registry. *)

(** {1 Recording} *)

val incr : t -> string -> unit
(** Bump a named counter (created on first use). *)

val add : t -> string -> int -> unit

val observe : t -> string -> float -> unit
(** Record a value into a named histogram (created on first use). *)

val gauge_set : t -> string -> int -> unit
(** Set a named gauge's current value; its peak is tracked automatically. *)

(** {1 Reading back} *)

val counter : t -> string -> int
(** [0] when never bumped. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val hist : t -> string -> Hist.t option

val gauges : t -> (string * (int * int)) list
(** All gauges as [(name, (current, peak))], sorted by name. *)

(** {1 Dumps} *)

val metrics_json : t -> string
(** The whole registry as one JSON object:
    [{"counters":{..},"histograms":{..},"gauges":{..}}]
    with keys sorted, so equal registries render identically. *)
