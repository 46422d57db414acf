(** SSS deployment parameters. *)

type t = {
  nodes : int;  (** cluster size *)
  replication_degree : int;  (** replicas per key (1 = no replication) *)
  total_keys : int;  (** size of the key space, pre-populated at start *)
  network : Sss_net.Network.config;
  record_history : bool;  (** record events for the consistency checker *)
  seed : int;  (** PRNG seed for network jitter *)
  strict_order : bool;
      (** order external commits per node by commit stamp (see DESIGN.md
          "hardening"); disable to measure the paper's literal per-key
          release *)
  gc : bool;
      (** watermark-driven online garbage collection, the store's only
          collector: version chains are truncated and node logs pruned up
          to the cluster low-watermark (the entry-wise minimum over every
          node's [coordinated_max] and every live read-only snapshot
          bound), so nothing any live or future read-only transaction could
          still {!Mvstore.select} is ever dropped.  On by default.  Off
          means nothing is collected: chains and logs grow without bound.
          The GC-off reference runs (perfbench's [paper-closed] workload
          and the consistency tests that compare histories against GC-off)
          use that.  GC is passive — it draws no randomness and schedules
          no events — so turning it off changes memory, not trajectories;
          the one exception is [durability], where a checkpoint's write
          time depends on how much the GC left to image. *)
  priority_network : bool;
      (** give protocol-completing messages (Remove, Decide, ...) priority
          over new work in node ingress queues, as the paper's optimized
          network component does (§V); disable for the ablation.  All four
          systems honour it: the shared runtime's [send] reads it *)
  compress_metadata : bool;
      (** account message sizes with varint-compressed vector clocks
          (§III-A); affects only the byte telemetry, not behaviour *)
  fault_tolerance : bool;
      (** run the protocol over the tracked at-least-once transport
          ({!Sss_net.Reliable}) so it survives message loss, partitions and
          node crashes injected by a fault plan (docs/FAULTS.md).  Off by
          default: the healthy-path wire behaviour — message counts, byte
          telemetry, PRNG draw sequence — is then byte-for-byte what the
          committed benchmark figures were produced with.  All four systems
          (SSS and the three baselines) honour this flag. *)
  observe : bool;
      (** attach an {!Sss_obs.Obs.t} to the cluster: per-message-kind
          counters and latency histograms, per-node queue-depth gauges,
          transaction, lock, clock and snapshot-queue counters
          (docs/OBSERVABILITY.md).  Observation is
          passive — it draws no randomness and schedules nothing — so
          trajectories, committed counts, and checker verdicts are
          identical with it on or off; with it off (the default) no
          observation code runs at all.  All four systems honour the
          flag. *)
  trace_capacity : int;
      (** ignored: the trace ring it sized is gone.  Kept only because the
          benchmark code still sets it; ROADMAP item 6 deletes it *)
  durability : bool;
      (** give every node a simulated write-ahead log
          ({!Sss_storage.Storage} over {!Sss_sim.Iodev}): commit-path
          records are group-flushed before votes, decisions and client
          acknowledgements; the MV-store is checkpointed periodically; and
          a crash injected by a fault plan now {e discards volatile state}
          and replays the log before the node rejoins (docs/DURABILITY.md).
          Off by default: healthy trajectories are then byte-for-byte
          identical to a build without this subsystem.  All four systems
          honour the flag; crash/restart plans under it normally also want
          [fault_tolerance] so in-flight messages survive the outage. *)
  checkpoint_interval : float;
      (** durability mode: virtual seconds between fuzzy checkpoints of a
          node's store; [<= 0] disables checkpointing, leaving recovery to
          replay the whole log (default 50 ms) *)
}

val default : t
(** 4 nodes, replication degree 2, 64 keys; unit tests override fields as
    needed. *)

(** {1 Protocol constants}
    Shared by all four systems; no run varies them.  Virtual seconds. *)

val vote_timeout : float
(** 1 ms, as in the paper: a commit coordinator's wait for votes before it
    decides abort (SSS, 2PC, Walter). *)

val lock_timeout : float
(** 1 ms: prepare-phase lock acquisition timeout (then the vote is no). *)

val ack_timeout : float
(** 30 s: backstop on the client-side waits for acknowledgements — SSS
    update commits (the external-commit Ack; the overall deadline under
    [durability]) and hardened-mode finalize waits, 2PC apply acks, ROCOCO
    commit acks without [durability], and read replies only under
    [fault_tolerance].  Exceeding
    it raises {!Sss_net.Rpc.Stalled} (its [bound] reads ["ack_timeout"]),
    which in a healthy run indicates a protocol bug and under fault
    injection means the plan out-lasted the retry budget. *)

val starvation_threshold : float
(** 5 ms: a writer parked in a snapshot-queue longer than this triggers
    admission control on new read-only reads of its keys (§III-E). *)

val backoff_initial : float
(** 0.5 ms: first admission-control delay. *)

val backoff_max : float
(** 8 ms: admission-control back-off cap. *)

val retry_initial : float
(** 0.5 ms: first re-send of an unacknowledged tracked message. *)

val retry_max : float
(** 8 ms: exponential backoff cap between re-sends. *)

val retry_limit : int
(** 64: fault-tolerance mode's re-send attempts before a tracked send is
    abandoned (together with {!retry_max} this rides out fault windows of
    several hundred ms; a foreground wait that depended on an abandoned
    send fails with {!Sss_net.Rpc.Stalled} once {!ack_timeout} expires),
    and the attempt budget of the waits bounded by a count (the in-doubt
    termination watchdog, ROCOCO's durable read re-issue and aliveness
    watchdog). *)

val fsync_latency : float
(** 50 µs: fixed per-operation cost of a log device write (fsync floor). *)

val disk_bandwidth : float
(** 2 GB/s: sustained log-device transfer rate, in bytes per second. *)
