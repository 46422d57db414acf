(** The store descriptor: SSS and the three baselines behind one record.

    [create] builds a cluster of any system and returns what every harness
    needs from it — the driver's client operations, the history, the
    network and storage gauges, the chaos installer — plus the list of
    consistency properties the protocol promises.  Sweeps and tests check
    exactly [checks]: the promises plus quiescence. *)

open Sss_data

type system = Sss | Walter | Twopc | Rococo

val system_name : system -> string
(** "SSS", "Walter", "2PC" or "ROCOCO". *)

(** A checker property ({!Sss_consistency.Checker}). *)
type property =
  | External_consistency
  | Serializability
  | No_lost_updates
  | No_torn_commits
  | Ro_abort_free

val properties : property list
(** Every property, in report order. *)

val check : property -> Sss_consistency.History.t -> (unit, string) result

val promises : system -> property list
(** What the protocol guarantees: SSS all five; 2PC external consistency,
    no lost updates and no torn commits; Walter (PSI) no lost updates, no
    torn commits and read-only abort-freedom; ROCOCO serializability, no
    lost updates and no torn commits. *)

type 'h t = {
  system : system;
  ops : 'h Sss_workload.Driver.ops;
  txn_id : 'h -> Ids.txn;
  local_keys : Ids.node -> Ids.key array;
  history : Sss_consistency.History.t;
  obs : Sss_obs.Obs.t option;
  network_stats : unit -> Sss_net.Network.stats;
  store_words : unit -> int;
      (** resident store words under {!Sss_data.Mvstore.mem_words}'s heap
          model — comparable across protocols *)
  quiescent : unit -> (unit, string) result;
  chaos : ?durable:bool -> Sss_chaos.Chaos.plan -> Sss_chaos.Chaos.handle;
      (** install a fault plan on the cluster's network; [durable] (default
          [false]) also wires the protocol's crash/restart hooks, so a
          durable node discards its volatile state and replays its log *)
  promises : property list;  (** [promises system] *)
  kv : Sss_kv.Kv.cluster option;  (** [Some] for SSS: its own telemetry *)
}

type any = Store : 'h t -> any

val create : system -> Sss_sim.Sim.t -> Sss_kv.Config.t -> any

val checks : 'h t -> (string * (unit, string) result) list
(** Every promised property over the store's history, then ["quiescent"]. *)

val paper_degree : system -> int
(** The replication degree the paper's comparisons run a system at:
    ROCOCO unreplicated (1), every other system 2. *)

(** {1 Driving a store} — the create-drive-check loop of the harnesses *)

(** One closed-loop run, reduced to what the harnesses report. *)
type report = {
  system : system;
  committed : int;  (** commits the workload driver counted *)
  des_events : int;  (** simulator events the run executed *)
  history : Sss_consistency.History.t;
  quiescent : (unit, string) result;  (** taken once the run drained *)
  metrics : string option;  (** the {!Sss_obs.Obs} metrics JSON iff [config.observe] *)
}

val drive :
  ?plan:Sss_chaos.Chaos.plan ->
  ?durable:bool ->
  system ->
  Sss_kv.Config.t ->
  ro:float ->
  clients:int ->
  warmup:float ->
  duration:float ->
  report
(** Build a store on a fresh simulator, install [plan] (with [durable] as
    in {!t.chaos}), and drive the paper's workload profile at read-only
    ratio [ro] with [clients] closed-loop clients per node, seeded by
    [config.seed]. *)

val report_checks : report -> (string * (unit, string) result) list
(** {!checks} for a driven run. *)

(** {1 Verdicts} — [sss-cli verify] *)

type verdict = Pass | Fail of string | Not_promised

val verdicts :
  system ->
  Sss_consistency.History.t ->
  quiescent:(unit, string) result ->
  (string * verdict) list
(** Every property in report order — unpromised ones as [Not_promised],
    never run — then ["quiescent"]. *)

val exit_code : (string * verdict) list -> int
(** 1 when any promised property (or quiescence) failed, else 0. *)
