(** A run, stated once: the system, its cluster configuration, the
    workload and the fault plan.  Every harness outside perfbench builds
    its runs as a [Spec.t], drives them with {!run} and names them in its
    failures with {!to_string}; the same spec drives the same trajectory. *)

type t = {
  system : Store.system;
  config : Sss_kv.Config.t;
  profile : Sss_workload.Driver.profile;
  load : Sss_workload.Driver.load;
  plan : Sss_chaos.Chaos.plan option;  (** [None]: no fault is injected *)
}

val make :
  ?plan:Sss_chaos.Chaos.plan ->
  ?ro:float ->
  ?clients:int ->
  ?warmup:float ->
  duration:float ->
  Store.system ->
  Sss_kv.Config.t ->
  t
(** [system] on [config] under the paper's profile at read-only ratio [ro]
    (default 0.5): [clients] closed-loop clients per node (default 10),
    [warmup] (default 5 ms) then [duration] of measured virtual time.

    A run has two seeds: [config.seed] drives the network's latency jitter,
    [load.seed] the workload (key and read-only draws, open-loop arrivals).
    [make] sets both from [config.seed]; a spec that needs them apart
    updates [load.seed] afterwards.  {!to_string} prints them as [seed=]
    and [load_seed=]. *)

val to_string : t -> string
(** One line naming every field (floats round-trip; the plan last, in
    {!Sss_chaos.Chaos.to_string}'s form).  [Config.trace_capacity] is the
    one field left out: no run reads it. *)

val run : ?setup:(Store.any -> unit) -> t -> Store.run
(** Create the {!Store} on a fresh simulator, install [plan] through its
    [chaos] installer, run [setup] on it (probes, samplers, a bare fault
    plan), then drive it.  [setup] runs before the first event: virtual
    time 0, no event processed, the plan scheduled but not yet fired.  The
    run's [chaos] holds what the plan injected. *)
