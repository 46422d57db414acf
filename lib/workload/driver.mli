(** YCSB-style workload driver (§V of the paper), closed- or open-loop.

    In the default closed loop, clients are colocated with nodes; each
    issues a new transaction only when the previous one returned, so load
    self-throttles and saturation is invisible by construction.  Update
    transactions read then overwrite two keys, the paper's
    read-modify-writes (§V); read-only transactions read [ro_ops] keys.  Keys are drawn uniformly, zipfian, or
    from the local node's replicas with probability [locality] (Fig. 7's
    50%-locality configuration).

    Setting {!load}[.open_loop] switches to an open loop: a seeded arrival
    process generates requests at a configured offered rate regardless of
    completion, arrivals wait in a per-node bounded admission queue (full
    queue = rejection, the backpressure signal), and a fixed pool of worker
    fibers serves them.  Results then separate queueing delay from service
    latency (sojourn = completion − arrival; service = completion −
    dequeue) and report offered vs accepted vs committed load.  The arrival
    randomness lives on a private splitmix stream, so closed-loop
    trajectories are byte-identical to builds without the open-loop engine.

    The driver is protocol-agnostic: any store exposing the {!type:ops}
    quadruple can be measured, which is how SSS, Walter, ROCOCO and the 2PC
    baseline all run under identical load. *)

open Sss_data

type 'h ops = {
  begin_txn : node:Ids.node -> read_only:bool -> 'h;
  read : 'h -> Ids.key -> string;
  write : 'h -> Ids.key -> string -> unit;
  commit : 'h -> bool;
}

type key_dist = Uniform | Zipfian of float

type profile = {
  read_only_ratio : float;
  ro_ops : int;  (** keys read by a read-only transaction *)
  locality : float;  (** probability of drawing a node-local key *)
}

val paper_profile : read_only_ratio:float -> profile
(** The paper's default: update transactions touch 2 keys, read-only
    transactions read 2 keys, no locality. *)

type arrival =
  | Poisson of float  (** memoryless arrivals at a fixed per-node rate (txn/s) *)
  | Ramp of { from_rate : float; to_rate : float }
      (** instantaneous rate interpolated linearly over the whole run
          (warmup + duration); both rates must be positive *)

type open_loop = {
  arrival : arrival;  (** per-node arrival process *)
  queue_capacity : int;
      (** max WAITING requests per node; arrivals beyond it are rejected
          (capacity 0 rejects everything) *)
  workers_per_node : int;  (** service concurrency per node *)
}

type load = {
  clients_per_node : int;  (** closed loop only; ignored under [open_loop] *)
  warmup : float;  (** seconds of virtual time before measurement starts *)
  duration : float;  (** measured virtual-time window *)
  seed : int;
  dist : key_dist;
  retry_aborts : bool;  (** re-run an aborted transaction on the same keys *)
  open_loop : open_loop option;  (** [None] = the paper's closed loop *)
}

val default_load : load
(** 10 clients/node (the paper's setting), 50 ms warmup, 250 ms measured,
    uniform keys, no retry, closed loop. *)

val arrival_rate : arrival -> at:float -> horizon:float -> float
(** The instantaneous arrival rate at virtual time [at] of a run ending at
    [horizon] (exposed for tests and for plotting offered-load ladders). *)

val arrival_gap : arrival -> Sss_sim.Prng.t -> at:float -> horizon:float -> float
(** Draw the next inter-arrival gap at virtual time [at].  Exponentially
    distributed with mean [1 / arrival_rate].  @raise Invalid_argument if
    the instantaneous rate is not positive. *)

type result = {
  committed : int;  (** committed in the measured window *)
  committed_ro : int;
  aborted : int;  (** aborts in the measured window *)
  throughput : float;  (** committed transactions per second *)
  abort_rate : float;  (** aborted / (committed + aborted) *)
  latency : Stats.t;
      (** all committed transactions — end-to-end in the closed loop,
          service latency (excluding queueing) in the open loop *)
  ro_latency : Stats.t;
  update_latency : Stats.t;
  offered : int;  (** open loop: arrivals generated in the measured window *)
  accepted : int;  (** open loop: arrivals admitted to a queue *)
  rejected : int;  (** open loop: arrivals dropped at a full queue *)
  sojourn : Stats.t;  (** open loop: completion − arrival, committed txns *)
  service : Stats.t;  (** open loop: completion − dequeue *)
  queue_wait : Stats.t;  (** open loop: dequeue − arrival *)
}

val run :
  Sss_sim.Sim.t ->
  nodes:int ->
  total_keys:int ->
  local_keys:(Ids.node -> Ids.key array) ->
  profile:profile ->
  load:load ->
  ops:'h ops ->
  result
(** Spawns the clients, runs the simulator to completion (clients stop
    issuing after [warmup + duration]; in-flight work drains), and returns
    the measured-window statistics.  @raise Invalid_argument, before
    spawning anything, if [profile.ro_ops] is below 1: a transaction with
    no operation sends no message, so a loop of them would never advance
    virtual time. *)
