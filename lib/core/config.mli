(** SSS deployment parameters. *)

type t = {
  nodes : int;  (** cluster size *)
  replication_degree : int;  (** replicas per key (1 = no replication) *)
  total_keys : int;  (** size of the key space, pre-populated at start *)
  network : Sss_net.Network.config;
  vote_timeout : float;
      (** how long a 2PC coordinator waits for votes before aborting
          (the paper uses 1 ms on a 20 µs-latency network) *)
  lock_timeout : float;  (** prepare-phase lock acquisition timeout *)
  ack_timeout : float;
      (** backstop on the client-side commit waits (external-commit Ack,
          Finalize ack, wait-finalized chaining — and, in fault-tolerance
          mode, reads): exceeding it raises {!Sss_net.Rpc.Stalled}, which in
          a healthy run indicates a protocol bug and under fault injection
          means the plan out-lasted the retry budget *)
  starvation_threshold : float;
      (** a writer parked in a snapshot-queue longer than this triggers
          admission control on new read-only reads of its keys (§III-E) *)
  backoff_initial : float;  (** first admission-control delay *)
  backoff_max : float;  (** exponential back-off cap *)
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
  retry_initial : float;
      (** fault-tolerance mode: first re-send of an unacknowledged message
          after this much virtual time (default 0.5 ms) *)
  retry_max : float;  (** exponential backoff cap between re-sends (8 ms) *)
  retry_limit : int;
      (** re-send attempts before a tracked send is abandoned (64 — together
          with [retry_max] this rides out fault windows of several hundred
          ms; a foreground wait that depended on an abandoned send fails
          with {!Sss_net.Rpc.Stalled} once [ack_timeout] expires) *)
  observe : bool;
      (** attach an {!Sss_obs.Obs.t} to the cluster: typed trace events,
          per-message-kind counters and latency histograms, per-node
          queue-depth gauges (docs/OBSERVABILITY.md).  Observation is
          passive — it draws no randomness and schedules nothing — so
          trajectories, committed counts, and checker verdicts are
          identical with it on or off; with it off (the default) no
          observation code runs at all.  All four systems honour the
          flag. *)
  trace_capacity : int;
      (** ring capacity of the trace sink when [observe] is set; older
          events are overwritten (and counted) once exceeded *)
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
  fsync_latency : float;
      (** durability mode: fixed per-operation cost of a log device write
          (the fsync floor, default 50 µs) *)
  disk_bandwidth : float;
      (** durability mode: sustained log-device transfer rate in bytes per
          second (default 2 GB/s) *)
  checkpoint_interval : float;
      (** durability mode: virtual seconds between fuzzy checkpoints of a
          node's store; [<= 0] disables checkpointing, leaving recovery to
          replay the whole log (default 50 ms) *)
}

val default : t
(** 4 nodes, replication degree 2, 64 keys, paper-like timeouts; unit tests
    override fields as needed. *)
