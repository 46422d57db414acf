(** Request/response bookkeeping on top of {!Network}.

    Protocols send explicit response messages (so replies pay network
    latency like everything else); these helpers match responses back to
    the fiber that is waiting for them. *)

exception Stalled of { system : string; phase : string; bound : string; detail : string }
(** A protocol wait gave up: under fault injection this means the fault
    plan never let the protocol step complete (e.g. a partition that is
    never healed); in a healthy run it indicates a protocol bug.  [system]
    names the protocol stack ("sss", "twopc", "walter", "rococo"), [phase]
    the wait that gave up, and [bound] what ran out: ["ack_timeout"] (the
    wait's backstop timeout) or ["retry_limit attempts"] (its retries). *)

val stalled : system:string -> phase:string -> bound:string -> string -> 'a
(** [stalled ~system ~phase ~bound detail] raises {!Stalled}. *)

exception Crashed of { system : string; node : int }
(** Raised by a client-side protocol step whose home node crashed under
    [Config.durability]: the node's volatile state — including the
    rendezvous this step was parked on — is gone, and the transaction can
    never complete.  The workload driver treats it as "this client's node
    is down": the in-flight transaction is abandoned without a history
    verdict (the consistency checker accepts incomplete transactions) and
    the client retries after a backoff, succeeding once recovery finishes.
    Distinct from {!Stalled}, which signals a wait that out-lived its
    retry budget and is a hard failure. *)

val crashed : system:string -> node:int -> 'a
(** [crashed ~system ~node] raises {!Crashed}. *)

(** Single-response slots: "contact all replicas, take the fastest answer"
    (SSS reads), or plain unicast RPC.  Late and duplicate responses are
    ignored. *)
module Pending : sig
  type 'a t

  type 'a slot
  (** One waiter's rendezvous.  Holds either the response or the exception
      a crash poisoned it with. *)

  val create : unit -> 'a t

  val fresh : 'a t -> int * 'a slot
  (** Allocate a request id and the slot its response will fill. *)

  val resolve : Sss_sim.Sim.t -> 'a t -> int -> 'a -> unit
  (** Fill the slot for a request id; no-op if unknown or already
      resolved. *)

  val await : Sss_sim.Sim.t -> 'a slot -> 'a
  (** Park the calling fiber until the slot resolves; re-raises the
      poisoning exception if the node crashed first. *)

  val await_timeout : Sss_sim.Sim.t -> 'a slot -> timeout:float -> 'a option
  (** Like {!await} with a backstop: [None] once [timeout] virtual seconds
      pass without a response. *)

  val poison_all : Sss_sim.Sim.t -> 'a t -> exn -> unit
  (** Fail every outstanding slot with the given exception (in request-id
      order) and empty the table — a crashed node abandoning its
      waiters. *)

  val forget : 'a t -> int -> unit

  val outstanding : 'a t -> int
end
