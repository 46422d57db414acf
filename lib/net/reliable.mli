(** At-least-once delivery with exactly-once processing, on top of
    {!Network}.

    This is the transport the protocols switch on in fault-tolerance mode
    (see [Sss_kv.Config.fault_tolerance] and docs/FAULTS.md): a tracked
    send is retried with exponential backoff until the receiver's receipt
    comes back, receipts are re-issued for every duplicate, and the
    receiver processes each token only once — so the protocol logic above
    sees exactly the lossless network it was written for, merely with
    longer and more variable delays.

    The envelope and receipt are ordinary protocol messages (each protocol
    adds a [Tracked of {token; inner}] and a [Delivered of {token}]
    constructor to its message type), so they pay latency, priorities and
    ingress-queue service like everything else.  A typical wiring:

    {[
      (* sender side *)
      Reliable.send rel ~prio ~src ~dst (fun token -> Tracked { token; inner })

      (* receiver side, in the dispatch loop *)
      | Tracked { token; inner } ->
          send_raw ~dst:src (Delivered { token });
          if Reliable.receive rel token then dispatch t node ~src inner
      | Delivered { token } -> Reliable.delivered rel token
    ]}

    Determinism: retries run on virtual time and all state is plain data,
    so a run's trajectory remains a pure function of its seeds and fault
    plan. *)

type retry = {
  initial : float;  (** first re-send after this much virtual time *)
  max : float;  (** backoff doubles up to this cap *)
  limit : int;  (** attempts before the sender gives up (counted in {!stalled}) *)
}

type 'msg t

val create : Sss_sim.Sim.t -> 'msg Network.t -> retry:retry -> 'msg t

val send :
  'msg t -> ?prio:int -> src:Sss_data.Ids.node -> dst:Sss_data.Ids.node -> (int -> 'msg) -> unit
(** [send t ~src ~dst wrap] allocates a fresh token, sends [wrap token] and
    arms a retry timer ({!Sss_sim.Sim.arm}) that re-sends it after
    [initial], then after waits doubling up to [max], until {!delivered}
    cancels the timer or [limit] waits have passed.  Give [wrap] no side
    effects. *)

val delivered : 'msg t -> int -> unit
(** The receiver's receipt for a token arrived: cancel its retry timer.
    Late and duplicate receipts are ignored. *)

val receive : 'msg t -> int -> bool
(** [receive t token] is [true] exactly the first time the token is seen;
    the caller processes the payload only then, but must send its receipt
    for every copy (receipts can be lost too).  Processed tokens are kept
    as one bit each ({!Sss_data.Idset}); a token retires — and keeps
    reading as seen — once a later token was first processed more than
    the dedup horizon ago: the sender's whole retry watch ([initial]
    doubling up to [max], [limit] waits) plus 30 s of flight slack, after
    which no copy of it can still arrive.  A copy already seen allocates
    nothing. *)

val set_obs : 'msg t -> Sss_obs.Obs.t option -> unit
(** Attach (or detach) a metrics registry: each re-send then bumps
    [transport.retry], and each abandoned send bumps [transport.stall].
    Passive — trajectories are unchanged. *)

val retries : 'msg t -> int
(** Total re-sends performed (telemetry). *)

val stalled : 'msg t -> int
(** Sends abandoned after exhausting the retry budget — nonzero means the
    fault plan out-lasted the retry schedule (or a destination never
    recovered); protocol waits depending on such a send will surface a
    {!Rpc.Stalled}. *)
