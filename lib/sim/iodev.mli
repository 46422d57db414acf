(** A simulated storage device.

    The device is a serial resource on the virtual clock: submitted
    operations are served FIFO, each costing a fixed per-operation latency
    (the fsync floor) plus a size-proportional transfer time at the
    configured bandwidth.  It is the disk-shaped sibling of the network's
    link model — completions are bare callbacks on the {!Sim} event queue,
    the device draws no randomness and spawns no fibers, so trajectories
    that include it are exactly as deterministic as the rest of the
    simulation.

    {!Sss_storage.Storage} builds the write-ahead log and checkpoint
    machinery on top of this primitive (docs/DURABILITY.md). *)

type t

val create : Sim.t -> op_latency:float -> bandwidth:float -> t
(** [create sim ~op_latency ~bandwidth] is an idle device.  [op_latency]
    is charged once per submitted operation (seconds); [bandwidth] is the
    sustained transfer rate in bytes per second.  Raises [Invalid_argument]
    if [op_latency < 0] or [bandwidth <= 0]. *)

val submit : t -> bytes:int -> (unit -> unit) -> unit
(** [submit t ~bytes k] queues one operation moving [bytes] bytes and runs
    the completion callback [k] when it finishes:
    [max now busy_until + op_latency + bytes/bandwidth] on the virtual
    clock.  [k] runs as a bare callback and must not suspend (wrap
    possibly-suspending work in {!Sim.run_fiber}). *)

val service_time : t -> bytes:int -> float
(** The un-queued cost of one operation of the given size — what [submit]
    would charge on an idle device. *)

val ops : t -> int
(** Operations submitted so far (for telemetry). *)

