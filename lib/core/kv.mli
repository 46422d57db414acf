(** SSS — the public key-value store API.

    A cluster is a set of simulated nodes running the SSS concurrency
    control (vector clocks + snapshot-queuing) over a partially replicated
    multi-version store, with keys [0 .. total_keys-1] each initialised to
    ["init:<k>"].  All operations must be called from inside a simulator
    fiber ({!Sss_sim.Sim.spawn}); they block the calling fiber until the
    protocol completes.

    Guarantees (the paper's headline properties):
    - every committed transaction is {e externally consistent}: the single
      serialization order matches the order in which clients observe
      transaction completions;
    - read-only transactions never abort due to concurrency and never block
      update transactions (update transactions may instead delay their
      {e client response} until conflicting readers finish — the
      Pre-Commit phase).

    What the {!Runtime.STORE} operations mean here:
    - [begin_txn]: SSS requires the programmer to declare read-only
      transactions (§II); a read contacts every replica and returns the
      fastest consistent answer, and [write] raises [Invalid_argument] in
      a read-only transaction;
    - [commit]: a read-only transaction always returns [true] at once (it
      is abort-free); an update transaction runs 2PC and returns once it
      is {e externally} committed, or [false] if validation or locking
      aborted it.  [abort] also clears a read-only transaction's
      snapshot-queue entries;
    - [quiescent] checks that snapshot-queues and commit queues are empty
      and that no lock, prepared entry, parked stamp, coordinator-table
      entry (open, reading or finishing transaction) or reader record (a
      read-only transaction's keys and forwards at a participant, which
      its Remove takes) remains;
    - [restart_node] re-installs applied writes from the log, re-takes the
      locks of in-doubt prepared transactions, re-parks applied but
      unfinalized writers, reconnects the NIC, resumes interrupted
      pre-commit and finalize fibers, and watches each in-doubt
      transaction ([Dquery] to its coordinator) until its outcome is
      known.

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

include
  Runtime.STORE
    with type cluster = State.t
     and type handle = Client.handle
     and type msg = Message.payload

val with_txn :
  cluster ->
  node:Sss_data.Ids.node ->
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

(** {1 Introspection} *)

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
    bench/smoke.sh and asserted by [stress --open].  [store_words] is its
    [Mvstore.mem_total]. *)

val nlog_entries : cluster -> int
(** Total retained node-log entries across the cluster. *)

val gc_stats : cluster -> int * int * int
(** [(watermark refreshes, versions dropped, log entries dropped)] by the
    online GC — all zeros unless {!Config.t.gc} is on. *)

val transport_retries : cluster -> int
(** Re-sends performed by the fault-tolerance transport (0 unless
    {!Config.t.fault_tolerance} is on and faults actually bit). *)

val transport_stalled : cluster -> int
(** Tracked sends abandoned after the retry budget; nonzero means the fault
    plan out-lasted {!Config.retry_limit}. *)
