(** Reproduction harness for every figure of the paper's evaluation (§V).

    Each [figN] function runs the corresponding experiment on the simulated
    cluster and prints the same series the paper plots; EXPERIMENTS.md
    records the paper-vs-measured comparison.  Absolute numbers are
    simulator numbers — the meaningful output is the shape: orderings,
    ratios, crossovers.

    Figures execute through a {!ctx}: the independent simulator runs behind
    a figure are fanned across a {!Sss_par.Pool} (jobs = 1 by default) and
    their results consumed strictly in submission order.  Each figure
    returns the runs it made, as [(params, outcome)] pairs in submission
    order; they and the figure's text are byte-identical at every jobs
    count. *)

type system = Store.system = Sss | Walter | Twopc | Rococo

val system_name : system -> string

type params = {
  system : system;
  nodes : int;
  degree : int;
  keys : int;
  ro_ratio : float;
  ro_ops : int;  (** reads per read-only transaction *)
  locality : float;  (** probability of accessing a node-local key *)
  clients : int;  (** closed-loop clients per node *)
  warmup : float;
  duration : float;
  seed : int;
  strict : bool;
      (** SSS only: run the hardened external-commit ordering (see
          DESIGN.md) instead of the paper's literal per-key release;
          defaults to the paper's behaviour for benchmark fidelity *)
  priority_network : bool;
      (** SSS only: the §V prioritized message queues (default on) *)
  compress : bool;
      (** SSS only: §III-A vector-clock compression for the byte
          telemetry (default on) *)
  zipf : float option;
      (** skewed key popularity (YCSB zipfian theta) instead of uniform *)
  observe : bool;
      (** attach the {!Sss_obs.Obs} sink to the run (default off).  By the
          observer-effect contract this must not change trajectories — see
          docs/OBSERVABILITY.md and the gate in bench/smoke.sh *)
  durability : bool;
      (** write-ahead logging on every node (default off; see
          docs/DURABILITY.md) *)
  checkpoint_interval : float;
      (** {!Sss_kv.Config.t.checkpoint_interval} (default: the Config
          default) *)
  crash : (float * float) option;
      (** [Some (at, restart_at)]: fail-stop one node mid-run and restart
          it, with {!Sss_chaos.Chaos} crash/restart hooks wired so durable
          protocols discard volatile state and replay their log.  Enables
          the fault-tolerant transport for the run. *)
  arrival : Sss_workload.Driver.arrival option;
      (** [Some process]: drive the run open-loop — arrivals from the given
          process instead of [clients] think-free loops.  [None] (default)
          keeps the paper's closed loop, byte-identical to builds without
          the open-loop engine. *)
  queue_capacity : int;
      (** open loop: bounded admission queue per node; arrivals beyond it
          are rejected (counted, not queued) *)
  workers : int;  (** open loop: service fibers per node *)
}

val default_params : params
(** SSS, 5 nodes, degree 2, 5000 keys, 50% read-only, 10 clients/node,
    10 ms warmup + 40 ms measured. *)

type outcome = {
  throughput : float;  (** committed transactions per second of virtual time *)
  committed : int;
  aborted : int;
  abort_rate : float;
  mean_latency : float;
  p99_latency : float;
  mean_update_latency : float;
  mean_ro_latency : float;
  (* SSS only: mean time from begin to internal commit (Decide sent) and
     from internal to external commit (the snapshot-queue wait) *)
  sss_internal : float option;
  sss_wait : float option;
  wait_covered_timeouts : int;  (** SSS only; 0 in all reported runs *)
  wire_bytes : int;  (** SSS only: total network bytes (compression-aware) *)
  metrics : string option;
      (** [Some json] iff the run had [observe = true]: the
          {!Sss_obs.Obs.metrics_json} of the cluster's sink *)
  des_events : int;  (** simulator events this run executed *)
  virtual_seconds : float;  (** virtual time this run simulated *)
  wal : Sss_storage.Storage.stats;
      (** SSS only: cluster-wide write-ahead-log telemetry —
          {!Sss_storage.Storage.zero_stats} when [durability] is off or
          the system does not expose it *)
  offered : int;  (** open loop: arrivals in the measured window *)
  accepted : int;  (** open loop: arrivals admitted to a queue *)
  rejected : int;  (** open loop: arrivals refused (queue at capacity) *)
  p99_sojourn : float;
      (** open loop: 99th-percentile completion - arrival over committed
          transactions (queueing delay + service) *)
  mean_sojourn : float;
  mean_queue_wait : float;  (** open loop: mean dequeue - arrival *)
  store_versions : int;
      (** SSS only: versions retained across every node's MV-store at end
          of run *)
  store_words : int;
      (** end-of-run resident store words: SSS reports the exact
          store accounting ({!Sss_kv.Kv.mem_words}); the other systems a
          per-protocol heap model of their stores ([store_words] in each
          facade) — comparable across protocols in the saturation figure *)
  store_mem : Sss_data.Mvstore.mem;
      (** SSS only: the full accounting breakdown behind [store_words]
          ({!Sss_data.Mvstore.mem_zero} for the other systems) *)
  gc_dropped_versions : int;  (** SSS only: versions reclaimed by online GC *)
  gc_dropped_entries : int;  (** SSS only: log entries reclaimed by online GC *)
}

val run : params -> outcome
(** Build the cluster ({!Store.create}), drive the workload and the
    optional crash ({!Store.drive}), and return the measured window's
    statistics — scalars only, so a banked outcome keeps no cluster,
    history or latency sample alive.  History recording is off
    (benchmark mode) and quiescence is not computed.

    [run] is a pure function of its params: it builds its own simulator and
    cluster and touches no module-level state, so concurrent calls from
    pool domains are safe (lint rule R6 polices the library). *)

(** Execution context for the figure harness: the domain pool fan-out
    width, the bench [--observe] override, and the sink the figure's text
    goes to. *)
type ctx

val ctx :
  ?jobs:int -> ?observe_all:bool -> ?out:(string -> unit) -> unit -> ctx
(** [jobs] defaults to 1 (fully sequential, no domains spawned);
    [Sss_par.Pool.default_jobs ()] gives the machine width.  [observe_all]
    forces [observe = true] on every run the ctx executes (bench's
    [--observe] flag; the smoke.sh observer-effect gate diffs trajectories
    with this on vs off).  [out] receives every byte the figures print
    (default [print_string]); pass [ignore] for a quiet timing run. *)

val jobs : ctx -> int

(** Experiment scale: [Full] mirrors the paper's parameters (up to 20
    nodes, 5k/10k keys); [Quick] shrinks node counts and durations for a
    fast regeneration; [Smoke] is a seconds-long sanity pass used in CI. *)
type scale = Full | Quick | Smoke

val scale_of_string : string -> scale option
(** ["full"], ["quick"] or ["smoke"]. *)

val scale_name : scale -> string

val parse_jobs : string -> int option
(** A [-j] value: a positive count, or ["max"] for
    {!Sss_par.Pool.default_jobs}. *)

val base_params : scale -> params
(** The parameter template every figure at that scale derives its points
    from (bench/main.ml fingerprints it for the report's meta block). *)

val fig3 : ctx -> scale -> (params * outcome) list
(** Throughput vs node count for SSS/Walter/2PC, replication degree 2,
    read-only ratio in {20, 50, 80}%, 5k and 10k keys. *)

val fig4a : ctx -> scale -> (params * outcome) list
(** Maximum attainable throughput (best over clients-per-node) for SSS vs
    2PC-baseline, 50% read-only, 5k keys. *)

val fig4b : ctx -> scale -> (params * outcome) list
(** Update-transaction latency (begin to external commit) vs clients per
    node, 20 nodes, 50% read-only, 5k keys, SSS vs 2PC-baseline. *)

val fig5 : ctx -> scale -> (params * outcome) list
(** Breakdown of SSS update latency: execution+internal commit vs the
    pre-commit (snapshot-queue) wait; the paper reports the wait at ~30% of
    total, and below 28% on average. *)

val fig6 : ctx -> scale -> (params * outcome) list
(** SSS vs ROCOCO vs 2PC-baseline, no replication, 5k keys, 20% and 80%
    read-only. *)

val fig7 : ctx -> scale -> (params * outcome) list
(** Throughput at 80% read-only with 50% access locality, degree 2, 5k and
    10k keys, SSS/Walter/2PC. *)

val fig8 : ctx -> scale -> (params * outcome) list
(** Speedup of SSS over ROCOCO and over 2PC-baseline as the read-only size
    grows through {2,4,8,16} reads; 15 nodes, 80% read-only, no
    replication. *)

val abort_rate : ctx -> scale -> (params * outcome) list
(** In-text measurement: SSS abort rate from 5 to 20 nodes at 20% read-only
    with 5k and 10k keys (paper: 6-28% and 4-14%). *)

val ablation : ctx -> scale -> (params * outcome) list
(** Design-choice ablation (not in the paper): throughput cost of the
    hardened external-commit ordering that makes the checker properties
    airtight, versus the paper's literal per-key snapshot-queue release. *)

val skewed : ctx -> scale -> (params * outcome) list
(** Extra experiment (not in the paper): all four systems under zipfian
    key popularity of increasing skew — contention sensitivity beyond the
    paper's uniform-access evaluation. *)

val durability : ctx -> scale -> (params * outcome) list
(** Extra experiment (not in the paper): the durable storage engine's two
    trades.  (a) Steady-state overhead — each system with durability off
    vs on, where durable commits wait for the group-commit fsync before
    acknowledging.  (b) Recovery cost vs checkpoint cadence — SSS with a
    mid-run crash/restart, sweeping the checkpoint interval: shorter
    intervals shrink the replayed log tail (faster recovery) at the price
    of more checkpoint write traffic.  EXPERIMENTS.md records the
    measured table. *)

val saturation : ctx -> scale -> (params * outcome) list
(** Extra experiment (not in the paper): open-loop saturation sweep.  A
    Poisson offered-load ladder per node is swept through each protocol's
    capacity knee (SSS and 2PC-baseline, online GC on), reporting accepted
    vs committed load, the 99th-percentile sojourn time, the admission
    rejection rate, and the version-retention gauges; a closing section
    drives one [Ramp] trajectory per system through the same range.  The
    printed latency floor (~2 request/reply rounds) anchors the sojourn
    axis the way Didona et al. anchor their saturation plots.  Each ladder
    closes with the protocol's resident store words (cross-protocol, same
    heap model) and its SLO verdict, {!slo_rate} of its rungs. *)

val slo_rate : (params * outcome) list -> float option
(** The highest Poisson arrival rate among the runs whose p99 sojourn met
    the saturation figure's 5 ms bound; [None] when no Poisson run did. *)

val all : ctx -> scale -> (params * outcome) list
(** Run every experiment in order; their runs, concatenated. *)

val figure_names : string list
(** Every figure's command-line name ("fig3", ..., "saturation"), in the
    order {!all} runs them. *)

val figure : string -> (ctx -> scale -> (params * outcome) list) option
(** The figure of that name, or ["all"]. *)

val history_md5 : Sss_consistency.History.t -> string
(** MD5 over every recorded history event, with its sequence number and
    virtual time — the trajectory fingerprint of {!recovery_smoke}. *)

val recovery_smoke : unit -> string
(** The recovery trajectory fingerprint: for each system, a durable
    crash/restart run and a lossy-transport run (drops + duplicates), each
    as one line of simulator events, committed count and history MD5.
    [bin/golden.exe recovery] prints it; test/golden/recovery_smoke.txt
    pins it. *)

val golden : string -> string option
(** A trajectory fixture: ["recovery"] is {!recovery_smoke}; a figure name
    gives its smoke-scale text at one job, followed by the run's simulator
    totals.  [bin/golden.exe] prints it; test/golden/*_smoke.txt pin
    every figure and ["recovery"]. *)
