(** SSS — the public key-value store API.

    A cluster is a set of simulated nodes running the SSS concurrency
    control (vector clocks + snapshot-queuing) over a partially replicated
    multi-version store.  All operations must be called from inside a
    simulator fiber ({!Sss_sim.Sim.spawn}); they block the calling fiber
    until the protocol completes.

    Guarantees (the paper's headline properties):
    - every committed transaction is {e externally consistent}: the single
      serialization order matches the order in which clients observe
      transaction completions;
    - read-only transactions never abort due to concurrency and never block
      update transactions (update transactions may instead delay their
      {e client response} until conflicting readers finish — the
      Pre-Commit phase).

    {1 Example}

    {[
      let sim = Sss_sim.Sim.create () in
      let cluster = Sss_kv.Kv.create sim Sss_kv.Config.default in
      Sss_sim.Sim.spawn sim (fun () ->
          let t = Sss_kv.Kv.begin_txn cluster ~node:0 ~read_only:false in
          let v = Sss_kv.Kv.read t 1 in
          Sss_kv.Kv.write t 1 (v ^ "!");
          ignore (Sss_kv.Kv.commit t));
      Sss_sim.Sim.run sim
    ]} *)

open Sss_data

type cluster = State.t

type handle = Client.handle

type msg = Message.payload

val create : Sss_sim.Sim.t -> Config.t -> cluster
(** Build a cluster: nodes, network, replica placement, and pre-populated
    keys ([0 .. total_keys-1], each initialised to ["init:<k>"]). *)

val begin_txn : cluster -> node:Ids.node -> read_only:bool -> handle
(** Start a transaction whose client is colocated with [node].  SSS
    requires the programmer to declare read-only transactions (§II). *)

val read : handle -> Ids.key -> string
(** Transactional read.  Reads the transaction's own buffered write if any;
    otherwise contacts every replica and returns the fastest consistent
    answer. *)

val write : handle -> Ids.key -> string -> unit
(** Buffer a write (visible to this transaction's later reads, installed at
    commit).  @raise Invalid_argument on a read-only transaction. *)

val commit : handle -> bool
(** Commit.  Read-only transactions always return [true] immediately (they
    are abort-free); update transactions run 2PC and return once the
    transaction is {e externally} committed, or [false] if validation/locking
    aborted it. *)

val abort : handle -> unit
(** Voluntarily abandon the transaction (cleans up snapshot-queue entries
    for read-only transactions). *)

val txn_id : handle -> Ids.txn

val with_txn :
  cluster ->
  node:Ids.node ->
  read_only:bool ->
  ?max_attempts:int ->
  (handle -> 'a) ->
  'a option
(** [with_txn cluster ~node ~read_only f] runs [f] inside a fresh
    transaction and commits it, retrying the whole body (new snapshot) if
    validation aborts it, up to [max_attempts] (default 5) times.
    Read-only transactions never abort, so they never retry.  Returns the
    body's result on commit, [None] if every attempt aborted.  Exceptions
    from [f] abort the transaction and propagate. *)

val is_read_only : handle -> bool

(** {1 Introspection} *)

val history : cluster -> Sss_consistency.History.t

val stats : cluster -> State.stats

val set_collect_latencies : cluster -> bool -> unit
(** Record (begin, internal-commit, external-commit) timestamps per
    committed update transaction (Figures 4(b) and 5). *)

val network_stats : cluster -> Sss_net.Network.stats

val wal_stats : cluster -> Sss_storage.Storage.stats
(** Cluster-wide write-ahead-log telemetry, summed over nodes — all zeros
    unless {!Config.t.durability} is on. *)

val version_count : cluster -> int
(** Total stored versions across every node's MV-store (O(nodes): the
    per-store counters are maintained incrementally). *)

val mem_words : cluster -> Sss_data.Mvstore.mem
(** Resident-storage accounting summed over every node's MV-store
    ({!Sss_data.Mvstore.mem_words}): the words/version figure gated by
    bench/smoke.sh and asserted by [stress --open]. *)

val nlog_entries : cluster -> int
(** Total retained node-log entries across the cluster. *)

val gc_stats : cluster -> int * int * int
(** [(watermark refreshes, versions dropped, log entries dropped)] by the
    online GC — all zeros unless {!Config.t.gc} is on. *)

val network : cluster -> msg Sss_net.Network.t
(** The cluster's simulated network — exposed so fault plans
    ([Sss_chaos.Chaos.install]) can be attached to it. *)

val message_kind : msg -> string
(** {!Message.kind_name}: the kind per-type fault rules match. *)

val repl : cluster -> Replication.t

val local_keys : cluster -> Ids.node -> Ids.key array
(** Keys replicated at a node (for the locality workload). *)

val store_words : cluster -> int
(** [Mvstore.mem_total] of {!mem_words}. *)

val obs : cluster -> Sss_obs.Obs.t option
(** The cluster's observability sink — [Some] iff {!Config.t.observe} was
    set at creation.  See docs/OBSERVABILITY.md for what it records. *)

val metrics_json : cluster -> string option
(** Shorthand: the sink's {!Sss_obs.Obs.metrics_json} when observing. *)

val trace_jsonl : cluster -> string option
(** Shorthand: the retained trace as JSON Lines when observing. *)

val transport_retries : cluster -> int
(** Re-sends performed by the fault-tolerance transport (0 unless
    {!Config.t.fault_tolerance} is on and faults actually bit). *)

val transport_stalled : cluster -> int
(** Tracked sends abandoned after the retry budget; nonzero means the fault
    plan out-lasted {!Config.t.retry_limit}. *)

val quiescent : cluster -> (unit, string) result
(** At a moment with no in-flight transactions, verify that no residue
    remains: snapshot-queues and commit queues empty, no locks held, no
    prepared 2PC state.  Catches protocol leaks in tests. *)

(** {1 Crash & recovery} — durability mode (docs/DURABILITY.md)

    Wired to {!Sss_chaos.Chaos.install}'s [on_crash]/[on_restart] hooks.
    With [Config.durability = false] both are (nearly) no-ops: the NIC
    fault is all there is, and [restart_node] merely reconnects it. *)

val crash_node : cluster -> Ids.node -> unit
(** Discard the node's volatile state: wound every parked waiter with
    {!Sss_net.Rpc.Crashed}, lose the unflushed log tail, and swap in a
    pristine node record (not yet alive).  Bare callback — safe from
    {!Sss_chaos.Chaos} event position. *)

val restart_node : cluster -> Ids.node -> unit
(** Redo recovery: reload the last checkpoint, replay the durable log tail
    (re-installing applied writes), re-take locks for in-doubt prepared
    transactions, re-park applied-but-unfinalized writers, reconnect the
    NIC, resume interrupted pre-commit/finalize fibers, and spawn
    termination watchdogs that query each in-doubt transaction's
    coordinator ([Dquery]) until its outcome is known. *)
