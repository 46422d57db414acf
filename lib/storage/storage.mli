(** Per-node durable storage: a write-ahead log with group commit, periodic
    fuzzy checkpoints, and redo recovery — all simulated on the virtual
    clock through {!Sss_sim.Iodev}.

    The engine is generic: a protocol instantiates [('r, 's) t] with its own
    log-record type ['r] (plus a byte-size model) and snapshot type ['s].
    Three disciplines make recovery correct without page-level idempotence
    (docs/DURABILITY.md has the full argument):

    {ol
    {- {b Atomic apply+append}: a volatile state change and the log record
       describing it are made in the same DES event, with no suspension
       point between them, so a checkpoint snapshot observes both or
       neither.}
    {- {b Durable before externally visible}: any action that makes an
       effect observable outside the node (sending a vote, a decision, a
       client acknowledgement) first {!await}s the corresponding record.}
    {- {b Immutable snapshots}: the snapshot closure returns an image no
       later write reaches (a copy, or a copy-on-write view); the live
       state keeps mutating while the checkpoint write is in flight.}}

    Group commit falls out of the device being serial: the first buffered
    append starts a flush immediately, and every append that arrives while
    that flush is in flight joins the next batch, which starts the moment
    the device frees up.

    A log is as deterministic as the simulator: no randomness, no
    wall-clock, and with durability disabled none of this code runs at
    all. *)

type ('r, 's) t
(** A write-ahead log holding records of type ['r] with checkpoints of
    type ['s]. *)

val create :
  Sss_sim.Sim.t ->
  Sss_sim.Iodev.t ->
  record_bytes:('r -> int) ->
  snapshot:(unit -> 's) ->
  snapshot_bytes:('s -> int) ->
  ?obs:Sss_obs.Obs.t ->
  unit ->
  ('r, 's) t
(** [create sim dev ~record_bytes ~snapshot ~snapshot_bytes ()] is an empty
    log on the given device.  [snapshot] must return an immutable image
    of the node state it covers (it is called at checkpoint time and the
    image is never mutated); [snapshot_bytes] prices the checkpoint
    write. *)

val append : ('r, 's) t -> 'r -> int
(** Buffer one record and return its log sequence number.  Starts a group
    flush if none is in flight.  The record is {e not} durable until a
    flush containing it completes — pair with {!await} before any
    externally-visible action that depends on it. *)

val await : ('r, 's) t -> int -> bool
(** [await t lsn] parks the calling fiber until the record at [lsn] is
    durable ([true]) or the node crashes first ([false]).  Must be called
    from within a fiber. *)

val durable_lsn : ('r, 's) t -> int
(** Highest LSN known durable, or [-1]. *)

val checkpoint : ('r, 's) t -> 's option
(** The last completed checkpoint's image (tests weigh it). *)

val start_checkpoints : ('r, 's) t -> interval:float -> unit
(** Enable fuzzy checkpoints at most every [interval] seconds of virtual
    time: call the snapshot closure, write it to the device, and — once
    the write completes — truncate the durable log below the snapshot's
    LSN boundary.  The timer is demand-driven, not free-running: it arms
    on the first append past the last checkpoint and goes quiescent while
    the log is clean (so an idle cluster's event queue drains and
    [Sim.run] terminates).  A crash disarms it; call again after
    {!recover}.  No-op if [interval <= 0]. *)

val crash : ('r, 's) t -> unit
(** Lose all volatile log state: the append buffer, any in-flight flush
    batch, and any in-flight checkpoint write.  Durable state (flushed
    records, the last completed checkpoint) survives.  Parked {!await}
    callers wake with [false]. *)

val recover : ('r, 's) t -> (recovered:'s option -> replay:'r list -> unit) -> unit
(** [recover t k] simulates reading the durable image back: one device
    operation sized as checkpoint + surviving log tail, after which [k]
    runs with the last completed checkpoint (if any) and the durable
    records past its boundary, in LSN order.  [k] runs as a bare
    callback.  New appends may begin immediately after [k]; LSNs continue
    monotonically across crashes. *)

(** Telemetry counters (deterministic; read at end of run). *)
type stats = {
  flushes : int;  (** group-commit device writes *)
  flushed_records : int;  (** records made durable *)
  flushed_bytes : int;  (** payload bytes across all flushes *)
  checkpoints : int;  (** completed checkpoint writes *)
  recoveries : int;  (** completed {!recover} reads *)
  replayed_records : int;  (** log records handed to recovery continuations *)
  recovery_seconds : float;
      (** virtual time spent reading durable images back, summed over
          recoveries — the knob {!start_checkpoints}' interval trades
          against checkpoint write traffic *)
}

val stats : ('r, 's) t -> stats

val zero_stats : stats
(** All-zero counters — the fold seed for cluster-wide aggregation, and
    what a cluster with durability off reports. *)

val add_stats : stats -> stats -> stats
(** Field-wise sum, for aggregating per-node logs into a cluster view. *)
