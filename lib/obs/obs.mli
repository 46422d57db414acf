(** Structured observability for the simulated cluster: a typed trace ring
    plus a metrics registry (counters, latency histograms, gauges), all on
    virtual time.

    Everything here is passive: recording never draws from a PRNG, never
    schedules simulator events, and never touches a wall clock, so an
    enabled observer cannot change a trajectory — only look at it.  The
    protocols hold an [Obs.t option] and skip every call site when it is
    [None], which keeps the disabled case allocation-free (the
    observer-effect contract pinned by [test/test_obs.ml] and the
    [bench/smoke.sh] gate).

    See docs/OBSERVABILITY.md for the event taxonomy and metric naming
    scheme. *)

(** One protocol-level occurrence.  Transaction ids are pre-rendered
    strings ([Ids.txn_to_string]) so this library depends on nothing. *)
type event =
  | Send of { kind : string; src : int; dst : int; bytes : int }
      (** a message left [src] for [dst] *)
  | Recv of { kind : string; src : int; dst : int }
      (** a message arrived at [dst] (before queueing) *)
  | Enqueue of { kind : string; node : int; depth : int }
      (** pushed onto a node's ingress queue; [depth] includes it *)
  | Dequeue of { kind : string; node : int; depth : int; waited : float }
      (** dispatched to its handler; [waited] is virtual time since send *)
  | Drop of { kind : string; src : int; dst : int }
      (** lost: crashed endpoint, severed link, or injected loss *)
  | Txn_begin of { txn : string; node : int; ro : bool }
  | Txn_commit of { txn : string; node : int; ro : bool }
  | Txn_abort of { txn : string; node : int; ro : bool; reason : string }
  | Park of { txn : string; node : int; stamp : int }
      (** an applied writer entered the parked (not externally committed) set *)
  | Unpark of { txn : string; node : int; stamp : int }
      (** it left that set (finalized or aborted) *)
  | Lock_acquire of { txn : string; node : int; keys : int }
  | Lock_release of { txn : string; node : int }
  | Vclock_advance of { node : int; value : int }
      (** a node bumped its own vector-clock entry to [value] *)
  | Retry of { src : int; dst : int; attempt : int }
      (** the at-least-once transport re-sent an unacknowledged message *)
  | Stall of { src : int; dst : int }
      (** it gave up on one after exhausting the retry budget *)

type stamped = { at : float;  (** virtual time *) seq : int; event : event }

type t

val create : ?capacity:int -> unit -> t
(** A fresh observer whose trace ring holds [capacity] events
    (default 65536); older events are overwritten and counted in
    {!dropped}. *)

(** {1 Recording} *)

val emit : t -> at:float -> event -> unit

val incr : t -> string -> unit
(** Bump a named counter (created on first use). *)

val add : t -> string -> int -> unit

val observe : t -> string -> float -> unit
(** Record a value into a named histogram (created on first use). *)

val gauge_set : t -> string -> int -> unit
(** Set a named gauge's current value; its peak is tracked automatically. *)

(** {1 Reading back} *)

val emitted : t -> int
(** Total events ever emitted (including overwritten ones). *)

val dropped : t -> int
(** Events lost to ring wraparound. *)

val events : t -> stamped list
(** The retained trace, oldest first. *)

val counter : t -> string -> int
(** [0] when never bumped. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val hist : t -> string -> Hist.t option

val gauges : t -> (string * (int * int)) list
(** All gauges as [(name, (current, peak))], sorted by name. *)

(** {1 Dumps} *)

val trace_jsonl : t -> string
(** The retained trace as JSON Lines, oldest first, one event per line. *)

val metrics_json : t -> string
(** The whole registry as one JSON object:
    [{"counters":{..},"histograms":{..},"gauges":{..},
      "trace":{"emitted":..,"retained":..,"dropped":..}}]
    with keys sorted, so equal registries render identically. *)
