(** The simulator's event queue: a calendar/ladder queue ordered by
    [(time, key)].

    The queue is O(1) amortized for the timestamp distributions the network
    models produce.  It has two rungs: a window of 1024 buckets of 1
    microsecond absorbs near-future events, and far-future timers fall back
    to an {e overflow} min-heap that re-anchors the window when it drains.
    The current bucket is drained in place by a scan for its minimum (a
    handful of contiguous float compares at typical occupancy — no sift, no
    copy).  Ties in [time] are broken by the int [key];
    when keys are unique (the simulator's key is its event sequence
    number), pop order equals a global sort by [(time, key)] exactly,
    independent of rung internals.

    Payloads are an [(fn, arg)] application rather than a thunk so callers
    with a long-lived handler (the simulator's fiber/callback wrappers, the
    network's delivery handler) can schedule without allocating a closure
    per event.  All internal storage is struct-of-arrays with recycled
    slots: steady-state push/pop allocates nothing, and vacated slots are
    poisoned so spent payloads are not kept alive.  Off the hot path,
    {!filter} drops unwanted payloads in one pass and {!release} gives back
    a drained queue's storage. *)

type t

val create : unit -> t
(** [create ()] returns an empty queue anchored at time 0.0.  Times pushed
    must be non-decreasing relative to the last pop (the simulator's
    no-past-events invariant); far-future times are unrestricted. *)

val length : t -> int
(** Number of queued events. *)

val is_empty : t -> bool
(** [length t = 0], without counting. *)

val push : t -> time:float -> key:int -> (Obj.t -> unit) -> Obj.t -> unit
(** Insert an event.  O(1) amortized within the window; O(log overflow) for
    far-future times.  The [(fn, arg)] pair is applied by {!run_popped}. *)

val pop : t -> bool
(** Remove the minimal event, exposing it via {!popped_time} and
    {!run_popped}.  Returns [false] iff the queue is empty. *)

val popped_time : t -> float
(** Timestamp of the event removed by the last successful {!pop}. *)

val run_popped : t -> unit
(** Apply the last popped event's [fn] to its [arg], clearing the queue's
    references to both first (so the payload is collectable once it
    returns).  Must be called at most once per successful {!pop}. *)

val min_time : t -> float
(** Smallest queued time, [infinity] when empty.  May advance internal
    cursors but never changes the pop order. *)

val popped_is : t -> (Obj.t -> unit) -> bool
(** [popped_is t fn] holds iff the last popped event's [fn] is physically
    [fn] (until {!run_popped} or {!drop_popped} clears it).  Lets the owner
    recognise one of its own payloads — the simulator's cancelled timers —
    before running it. *)

val popped_arg : t -> Obj.t
(** The [arg] of the last popped event, under the same terms as
    {!popped_is}. *)

val drop_popped : t -> unit
(** Discard the last popped event without applying it: the alternative to
    {!run_popped}, clearing the same slots. *)

val filter : t -> ((Obj.t -> unit) -> Obj.t -> bool) -> unit
(** [filter t keep] removes every queued event whose [(fn, arg)] fails
    [keep], from the current bucket, the window buckets and the overflow
    rung, then restores the rung's heap order and gives back rung capacity
    the survivors no longer need.  Survivors keep their
    [(time, key)] order, so a filter never changes which live event pops
    next.  O(length + buckets); meant for occasional compaction. *)

val release : t -> unit
(** Drop the storage every rung and bucket has grown, keeping the queue
    usable (later pushes grow it again from scratch).  Raises
    [Invalid_argument] unless the queue is empty. *)
