(** The store descriptor: SSS and the three baselines behind one record.

    [create] builds a cluster of any system and returns what every harness
    needs from it — the driver's client operations, the history, the
    network and storage gauges, the chaos installer.  Sweeps and tests
    check exactly {!verdicts}: the properties the protocol promises, plus
    quiescence. *)

open Sss_data

type system = Sss | Walter | Twopc | Rococo

val system_name : system -> string
(** "SSS", "Walter", "2PC" or "ROCOCO". *)

type 'h t = {
  system : system;
  sim : Sss_sim.Sim.t;  (** the simulator the cluster runs on *)
  config : Sss_kv.Config.t;
  ops : 'h Sss_workload.Driver.ops;
  local_keys : Ids.node -> Ids.key array;
  history : Sss_consistency.History.t;
  obs : Sss_obs.Obs.t option;
  network_stats : unit -> Sss_net.Network.stats;
  store_words : unit -> int;
      (** resident store words under {!Sss_data.Mvstore.mem_words}'s heap
          model — comparable across protocols *)
  store_repr : Ids.node -> Obj.t;  (** a node's store, for weighing it on the heap *)
  quiescent : unit -> (unit, string) result;
  chaos : Sss_chaos.Chaos.plan -> Sss_chaos.Chaos.handle;
      (** install a fault plan on the cluster's network with the protocol's
          crash/restart hooks wired: with [Config.durability] a crashed node
          discards its volatile state and replays its log; without it the
          hooks are inert and a crash only cuts the node's NIC *)
  kv : Sss_kv.Kv.cluster option;  (** [Some] for SSS: its own telemetry *)
}

type any = Store : 'h t -> any

val create : system -> Sss_sim.Sim.t -> Sss_kv.Config.t -> any
(** Harnesses reach it through {!Spec.run}. *)

val paper_degree : system -> int
(** The replication degree the paper's comparisons run a system at:
    ROCOCO unreplicated (1), every other system 2. *)

(** {1 Driving a store} — the run half of {!Spec.run}, the one
    create-drive-read pipeline of every harness outside perfbench *)

(** One driven run: what a harness reads once the simulator drained. *)
type run = {
  system : system;
  result : Sss_workload.Driver.result;
  des_events : int;  (** simulator events the run executed *)
  virtual_seconds : float;  (** virtual time the run simulated *)
  network : Sss_net.Network.stats;
  store_words : int;  (** as {!t.store_words}, at the end of the run *)
  history : Sss_consistency.History.t;
  obs : Sss_obs.Obs.t option;
  quiescent : unit -> (unit, string) result;  (** computed only when called *)
  kv : Sss_kv.Kv.cluster option;  (** [Some] for SSS: its own telemetry *)
  chaos : Sss_chaos.Chaos.stats option;
      (** what the run's fault plan injected; [None] without a plan *)
}

val drive :
  ?chaos:Sss_chaos.Chaos.handle ->
  'h t ->
  profile:Sss_workload.Driver.profile ->
  load:Sss_workload.Driver.load ->
  run
(** Run the workload driver on the store's simulator until it drains and
    read the end-of-run numbers; [chaos] is the handle of the plan
    installed on the store. *)

(** {1 Verdicts} — what [sss-cli verify], [stress] and the tests check *)

type verdict = Pass | Fail of string | Not_promised

val verdicts :
  system ->
  Sss_consistency.History.t ->
  quiescent:(unit, string) result ->
  (string * verdict) list
(** Every {!Sss_consistency.Checker} property in report order — unpromised
    ones as [Not_promised], never run — then ["quiescent"].  SSS promises
    all five; 2PC external consistency, no lost updates and no torn
    commits; Walter (PSI) no lost updates, no torn commits and read-only
    abort-freedom; ROCOCO serializability, no lost updates and no torn
    commits. *)

val exit_code : (string * verdict) list -> int
(** 1 when any promised property (or quiescence) failed, else 0. *)
