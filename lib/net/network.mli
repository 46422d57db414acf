(** Simulated message-passing network.

    Models the paper's testbed (§V): reliable asynchronous channels with a
    configurable propagation latency (~20µs on their InfiniBand cluster), a
    per-node serial processing capacity (a message occupies its destination
    node's CPU for [cpu_per_message] before its handler runs), and — like
    SSS's "optimized network component" — per-message priorities: when a
    node is saturated, higher-priority messages (e.g. Remove) overtake
    lower-priority ones in its ingress queue.

    Failures can be injected for tests: per-message faults from a
    {!set_perturb} hook (drop, delay, duplicate), link partitions, and node
    crashes (a crashed node neither sends nor receives). *)

type config = {
  latency_base : float;  (** fixed one-way propagation delay, seconds *)
  latency_jitter : float;  (** mean of an added exponential jitter; 0 = none *)
  self_latency : float;  (** delay for messages a node sends to itself *)
  cpu_per_message : float;  (** destination service time per message *)
}

val default_config : config
(** 20µs base latency, 2µs jitter, 1µs self delivery, 2µs service — chosen
    to mirror the paper's cluster; experiments override as needed. *)

type 'msg t

val create :
  ?size_of:('msg -> int) ->
  Sss_sim.Sim.t ->
  Sss_sim.Prng.t ->
  nodes:int ->
  config:config ->
  'msg t
(** [size_of] (default: 0) is charged to the byte counter per sent message,
    letting protocols account for their wire footprint (e.g. vector-clock
    compression).

    Dispatch is one callback event per delivered message, whose delay is
    the CPU charge; the handler runs inline under its own effect handler
    and parks only if it actually suspends. *)

val set_handler : 'msg t -> Sss_data.Ids.node -> (src:Sss_data.Ids.node -> 'msg -> unit) -> unit
(** Install the message handler for a node.  Each delivery runs the handler
    inline in a fresh fiber context, so handlers may block without stalling
    the node's ingress queue. *)

(** {1 Observation} *)

type 'msg observer = { obs : Sss_obs.Obs.t; kind_of : 'msg -> string }
(** A metrics registry plus the protocol's message classifier ([kind_of]
    names a message's kind, e.g. ["Prepare"]). *)

val set_observer : 'msg t -> 'msg observer option -> unit
(** Install (or remove) an observer.  With one installed the network keeps
    per-kind sent/recv/lost counters ([msg.lost.<kind>] counts every loss
    that [dropped] in {!stats} counts), per-kind end-to-end latency histograms
    ([lat.msg.<kind>]) and per-node ingress-depth gauges
    ([net.queue.node<i>]).  Observation is passive: it draws no randomness
    and schedules nothing, so trajectories are unchanged. *)

val send : 'msg t -> ?prio:int -> src:Sss_data.Ids.node -> dst:Sss_data.Ids.node -> 'msg -> unit
(** Fire-and-forget; lower [prio] is served first under saturation
    (default 100). *)

(** {1 Fault injection}

    Raw primitives; the declarative layer that drives them from a seeded,
    reproducible fault plan is [Sss_chaos.Chaos] (see docs/FAULTS.md).
    All of them only affect {e future} sends/deliveries — messages already
    in flight when a fault is injected are not retroactively dropped. *)

val crash : 'msg t -> Sss_data.Ids.node -> unit
(** Fail-stop the node's network interface: every message sent by or
    addressed to it (including messages already in flight towards it) is
    dropped until {!recover}.  The node's in-memory protocol state and its
    running fibers are untouched — this models a network-isolated process,
    and a recovery therefore resumes with its pre-crash state (see
    docs/FAULTS.md for what that does and does not exercise). *)

val recover : 'msg t -> Sss_data.Ids.node -> unit
(** Undo {!crash}: the node sends and receives again. *)

val is_crashed : 'msg t -> Sss_data.Ids.node -> bool

val sever : 'msg t -> Sss_data.Ids.node -> Sss_data.Ids.node -> unit
(** Cut the (bidirectional) link between two nodes: sends in either
    direction are dropped until {!heal}.  Idempotent. *)

val heal : 'msg t -> Sss_data.Ids.node -> Sss_data.Ids.node -> unit
(** Restore a severed link; a no-op if the link is intact. *)

type fault = { drop : bool; extra_delay : float; duplicates : int }
(** Verdict of a perturbation hook for one message: lose it, delay it by
    [extra_delay] seconds on top of the modelled latency, and/or deliver
    [duplicates] extra copies (at the same perturbed latency). *)

val no_fault : fault
(** [{ drop = false; extra_delay = 0.0; duplicates = 0 }] *)

val set_perturb :
  'msg t ->
  (src:Sss_data.Ids.node -> dst:Sss_data.Ids.node -> 'msg -> fault) option ->
  unit
(** Install (or clear, with [None]) a per-send perturbation hook.  The hook
    runs after the built-in checks (crashed source, severed link), so
    when it is absent the send path is exactly the healthy one.
    Any randomness belongs inside the hook, drawn from the caller's own
    seeded PRNG — [Sss_chaos.Chaos] compiles declarative fault plans
    into such a hook. *)

(* Telemetry *)

type stats = { sent : int; delivered : int; dropped : int; bytes : int }

val stats : 'msg t -> stats
