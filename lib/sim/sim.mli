(** Deterministic discrete-event simulator with lightweight fibers.

    The engine maintains a virtual clock and an event queue ordered by
    [(time, priority, sequence)].  Code that needs to block — a protocol step
    waiting for a message, a 2PC coordinator waiting for votes, a transaction
    parked on a snapshot-queue — runs inside a {e fiber}: a cooperative
    thread implemented with OCaml effect handlers.  A fiber suspends by
    performing an effect and is resumed by a later event, so the pseudocode's
    "wait until" conditions translate directly into {!Cond.await} calls.

    Everything is single-threaded and deterministic: two runs with the same
    initial events and PRNG seeds produce identical histories. *)

type t

val create : unit -> t
(** A fresh simulator at virtual time 0.0. *)

val tune_gc : unit -> unit
(** Grow the minor heap once for the simulator's allocation profile
    (idempotent; also invoked by {!create}).  Harnesses that fan runs across
    domains should call it before spawning, so the resize happens while the
    runtime is single-domain. *)

val now : t -> float
(** Current virtual time, in seconds. *)

val events_processed : t -> int
(** Number of events executed so far (for reporting and loop guards),
    plus the logical events counted by {!tick}.  Cancelled timers are not
    events: {!run} discards them uncounted. *)

val schedule : t -> ?prio:int -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] as a new fiber at time [now t +. delay].
    [f] may suspend.  Events at equal time fire in ascending [prio]
    (default 100), then in scheduling order. *)

val spawn : t -> ?prio:int -> (unit -> unit) -> unit
(** [spawn t f] is [schedule t ~delay:0.0 f]. *)

val schedule_callback : t -> ?prio:int -> delay:float -> (unit -> unit) -> unit
(** Like {!schedule} but the body runs as a bare callback, without the
    effect-handler context of a fiber: it must not suspend (wrap any
    possibly-suspending work in {!run_fiber}).  This is the cheap path for
    the simulator's highest-volume events (message deliveries, CPU
    charges). *)

val schedule_apply : t -> ?prio:int -> delay:float -> ('a -> unit) -> 'a -> unit
(** [schedule_apply t ~delay fn arg] runs [fn arg] as a bare callback at
    [now t +. delay] — semantically [schedule_callback t ~delay (fun () ->
    fn arg)], but without allocating the closure.  Callers with a
    long-lived handler (the network's delivery and dispatch paths) pass it
    directly and thread the per-event state through [arg], so scheduling
    an event allocates nothing.  [fn] must not suspend. *)

val run_fiber : (unit -> unit) -> unit
(** Run [f] immediately under a fresh effect handler.  If [f] suspends,
    the call returns and [f]'s continuation is parked exactly as a
    {!spawn}ed fiber's would be; it resumes through the event queue. *)

val set_probe : t -> (unit -> unit) option -> unit
(** Install (or clear) a passive tap run after every executed event.  The
    probe must not schedule events, suspend, or draw randomness — it exists
    so an observer can sample state (e.g. queue depths) on DES ticks
    without perturbing the trajectory.  At most one probe is installed;
    [None] removes it. *)

val tick : t -> unit
(** Count one logical event against {!events_processed} without executing
    anything.  Used by the network's inline dispatch, which fuses what used
    to be a separate handler event into its CPU-charge event — counting the
    fused delivery keeps DES event counts comparable with the handler
    running as an event of its own. *)

val sleep : t -> float -> unit
(** Suspend the current fiber for the given amount of virtual time.  Must be
    called from within a fiber. *)

val suspend : t -> ?prio:int -> ((unit -> unit) -> unit) -> unit
(** [suspend t register] parks the current fiber and calls [register resume].
    The fiber continues when [resume ()] is invoked (at most once; later
    calls are errors the caller must prevent), as an event at the current
    virtual time with priority [prio].  {!Cond} and {!Ivar} are not built
    on it: they park on the engine's internal [raw_suspend] and resume
    every waiter of a broadcast or fill from one event. *)

type timer
(** A pending callback that can be cancelled before it fires. *)

val arm : t -> delay:float -> (unit -> unit) -> timer
(** [arm t ~delay f] schedules [f] like {!schedule_callback} at the default
    priority (a bare callback: it must not suspend) and returns a handle
    that can {!cancel} it until it fires. *)

val cancel : t -> timer -> bool
(** [cancel t tm] stops [tm] from firing and drops its action at once.
    Returns [true] iff [tm] was still pending, so of two racing parties
    exactly one wins; cancelling a timer that fired or was already
    cancelled does nothing and returns [false].  The cancelled entry stays
    queued until {!run} pops and discards it, or until cancelled entries
    exceed half the queue (past a fixed floor of 1024), when the queue is
    filtered in one pass.  Neither changes the order of live events. *)

val run : t -> unit
(** Execute events until the queue is empty.  A cancelled timer popped on
    the way is discarded: it does not move the clock, is not counted by
    {!events_processed} and does not run the probe, so the clock ends at
    the last live event's time.  On return the queue releases the storage
    it grew; later events grow it again.  Exceptions raised by fibers
    propagate to the caller. *)

val run_until : t -> float -> unit
(** [run_until t limit] executes events with time <= [limit], discarding
    cancelled timers as {!run} does, then stops.  The clock is left at
    [limit] if it was earlier. *)

(** Broadcast-style condition variables for "wait until P" loops. *)
module Cond : sig
  type sim := t
  type t

  val create : unit -> t

  val wait : sim -> t -> unit
  (** Park the current fiber until the next {!broadcast}. *)

  val broadcast : sim -> t -> unit
  (** Wake every parked fiber (they resume at the current time, in the order
      they started waiting).  Multi-waiter broadcasts are batched: one
      drain event resumes all waiters back-to-back instead of enqueueing
      one event per waiter; {!events_processed} still counts one logical
      event per waiter. *)

  val await : sim -> t -> (unit -> bool) -> unit
  (** [await sim c pred] returns when [pred ()] holds, re-checking after
      every broadcast.  Callers must broadcast [c] whenever the state read by
      [pred] changes. *)

  val await_timeout : sim -> t -> timeout:float -> (unit -> bool) -> bool
  (** Like {!await} but gives up after [timeout] seconds of virtual time.
      Returns [true] if the predicate held, [false] on timeout.  Each park
      arms a backstop {!timer}: a wake cancels it, so a settled wait leaves
      nothing live in the queue and never runs its backstop; a backstop
      that fires compacts its waiter out of the condition's waiter list
      immediately, so long-lived conditions do not accumulate dead
      closures. *)
end

(** Write-once cells, used for request/response rendezvous. *)
module Ivar : sig
  type sim := t
  type 'a t

  val create : unit -> 'a t

  val is_filled : 'a t -> bool

  val fill : sim -> 'a t -> 'a -> unit
  (** Resolve the ivar and wake its readers.  Filling twice raises
      [Invalid_argument]. *)

  val read : sim -> 'a t -> 'a
  (** Return the value, parking the current fiber until it is available. *)

  val read_timeout : sim -> 'a t -> timeout:float -> 'a option
  (** [read_timeout] returns [None] if the ivar is still empty after
      [timeout] seconds of virtual time.  Its backstop {!timer} is
      cancelled when the fill wakes the reader, as in
      {!Cond.await_timeout}. *)
end
