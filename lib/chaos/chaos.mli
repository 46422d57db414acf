(** Deterministic fault injection: declarative fault plans for the simulated
    network.

    A {e fault plan} is plain data: probabilistic message-level rules
    (drop / duplicate / extra delay, scoped by link, message kind, and
    virtual-time window) plus scheduled events (network partitions that
    heal, node crashes that restart).  {!install} compiles a plan onto a
    {!Sss_net.Network.t}: events become simulator callbacks and rules become
    the network's perturb hook.

    {b Determinism.}  All randomness comes from a private splitmix64 stream
    seeded by [plan.seed] — never from wall-clock time or [Stdlib.Random] —
    so the same plan, workload seed, and configuration produce a
    byte-identical trajectory: same event count, same message counts, same
    history.  Replays of a failing chaos run are therefore exact.

    The base crash model is {e NIC fail-stop}: a crashed node stops sending
    and receiving (in-flight messages to it are lost), but its in-memory
    state and blocked fibers survive to the restart.  Under
    [Config.durability] the protocols upgrade it to a {e fail-stop-recover}
    model through {!install}'s [on_crash]/[on_restart] hooks: the crash
    additionally discards the node's volatile state, and the restart
    replays the node's write-ahead log before the NIC reconnects
    (docs/DURABILITY.md).  See [docs/FAULTS.md] for the full model and the
    plan syntax.

    Plans only make life harder; with [Config.fault_tolerance = true] the
    protocols mask all of it (see [docs/FAULTS.md] for who retries what). *)

(** {1 Plans} *)

type target = {
  src : int option;  (** match messages sent by this node ([None] = any) *)
  dst : int option;  (** match messages addressed to this node ([None] = any) *)
  kinds : string list;
      (** match these message kinds (names from the protocol's
          [message_kind] / {!Sss_kv.Message.kind_name}); [[]] = any kind *)
}

(** One probabilistic message rule.  Every message matching [target] inside
    the window [\[from_, until)] is independently dropped with probability
    [drop], duplicated with probability [dup] (one extra copy), and delayed
    by a uniform extra latency in [\[0, 2*delay)] seconds (so [delay] is the
    mean).  Rules compose: each matching rule is consulted in list order. *)
type rule = {
  target : target;
  drop : float;  (** drop probability in [\[0, 1\]] *)
  dup : float;  (** duplication probability in [\[0, 1\]] *)
  delay : float;  (** mean extra latency in seconds; [0.] = none *)
  from_ : float;  (** window start, virtual seconds *)
  until : float;  (** window end; [infinity] = forever *)
}

(** A scheduled, non-probabilistic event at an absolute virtual time. *)
type event =
  | Partition of { at : float; heal_at : float; groups : int list list }
      (** At [at], sever every link between nodes in different [groups];
          at [heal_at], restore them.  Nodes absent from every group keep
          all their links. *)
  | Crash of { at : float; restart_at : float option; node : int }
      (** NIC fail-stop [node] at [at]; recover at [restart_at]
          ([None] = never). *)

type plan = { seed : int; rules : rule list; events : event list }

val empty : plan
(** No rules, no events, seed 0 — installing it perturbs nothing. *)

val crash_restart : seed:int -> node:int -> at:float -> restart_at:float -> plan
(** The one-event plan: crash [node] at [at] and restart it at
    [restart_at]. *)

val validate : nodes:int -> plan -> (unit, string) result
(** Check a plan against a cluster size: probabilities in [\[0, 1\]], node
    ids in range, [heal_at > at], [restart_at > at], disjoint partition
    groups, [from_ <= until].  {!install} does not call this;
    [Sss_experiments.Spec.check] does, for every run's plan. *)

(** {1 The plan DSL}

    Plans have a compact textual form (the [--chaos] argument of
    [bin/stress.ml]): clauses separated by [;], each clause one of

    - [seed=7]
    - [drop(p=0.05,kind=prepare+vote,src=1,dst=2,from=0.01,until=0.02)]
    - [dup(p=0.02,...)] / [delay(mean=0.0005,...)] — same scoping keys
    - [rule(drop=0.05,dup=0.02,delay=0.0005,...)] — the general form
    - [partition(at=0.010,heal=0.013,groups=0.1|2.3)] — groups are
      [|]-separated, node ids [.]-separated
    - [crash(at=0.018,restart=0.021,node=2)] — [restart] optional

    Scoping keys ([kind], [src], [dst], [from], [until]) are optional and
    default to "match everything, forever". *)

val parse : string -> (plan, string) result
(** Parse the DSL.  [Error] carries a human-readable message naming the
    offending clause. *)

val to_string : plan -> string
(** Canonical textual form; [parse (to_string p) = Ok p] for every plan
    (floats are printed with enough digits to round-trip). *)

val float_str : float -> string
(** The shortest decimal that parses back to the same float (["inf"] for
    infinity): how {!to_string} prints every float. *)

(** {1 Installing} *)

type handle
(** A plan attached to one network; carries injection counters. *)

val install :
  Sss_sim.Sim.t ->
  'msg Sss_net.Network.t ->
  kind_of:('msg -> string) ->
  ?on_crash:(int -> unit) ->
  ?on_restart:(int -> unit) ->
  plan ->
  handle
(** Compile [plan] onto the network: schedule its events on the simulator
    (relative to the current virtual time, which should be 0) and register
    its rules as the network's perturb hook.  [kind_of] names a message's
    kind for rule matching (e.g. {!Sss_kv.Message.kind_name}).  The hook's
    PRNG is private to this handle, so installing a plan never changes the
    network's own latency/drop stream.

    [on_crash node] runs (as a bare callback) right after the NIC is
    crashed — a durable protocol uses it to discard the node's volatile
    state ([Kv.crash_node] and friends).  When [on_restart] is given, it
    {e replaces} the automatic [Network.recover] at restart time: the
    protocol is expected to replay its log and reconnect the NIC itself
    once recovery completes.  Omit both for the legacy liveness-blip
    crash. *)

type stats = {
  injected_drops : int;  (** messages dropped by a rule *)
  injected_dups : int;  (** extra copies scheduled by a rule *)
  injected_delays : int;  (** messages given extra latency by a rule *)
  partitions : int;  (** partition events fired *)
  heals : int;  (** heal events fired *)
  crashes : int;  (** crash events fired *)
  restarts : int;  (** restart events fired *)
}

val stats : handle -> stats
(** Counters so far (monotone during a run). *)
