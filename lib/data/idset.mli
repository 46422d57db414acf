(** Sets of dense ids with time-based retirement: one bit per id.

    Backs the state that would otherwise grow with the run: the transport's
    dedup set (keyed by cluster-wide send tokens) and the per-node
    transaction sets of the protocols (abort decisions, SSS's remove
    tombstones; keyed by node-local transaction numbers through {!Txns}).
    Both kinds of id come from a counter, so they are dense and minted in
    increasing order.  Storage spans the ids from the oldest unretired
    word to the largest id inserted, so the structure suits counters, not
    sparse keys.

    {b Retirement.}  Each word of 63 ids keeps the time of its first
    insert.  Once that is more than [horizon] ago, every id below the word
    was minted more than [horizon] ago — ids are minted in increasing
    order and inserted no earlier than minted — and the words below it
    retire: their ids read as {e present} from then on, inserted or not,
    and their storage is reclaimed at the next growth.  Present is the
    safe direction for every user: a retired token is never processed
    twice, a retired transaction is never resurrected.  Callers pick a
    [horizon] beyond which no copy of an id can still arrive.  Retirement
    runs on {!add}; a set that stops growing keeps what it has. *)

type t

val create : horizon:float -> t
(** An empty set; allocates nothing until the first {!add}. *)

val mem : t -> int -> bool
(** [mem t id]: [id] was inserted, or its word retired.  [false] for
    negative ids.  Allocation-free. *)

val add : t -> int -> now:float -> unit
(** Insert a non-negative id at virtual time [now] (non-decreasing across
    calls), then retire what [now] proves old.  Allocates nothing unless
    the set grows.  Raises [Invalid_argument] on a negative id. *)

val cardinal : t -> int
(** Members in unretired words. *)

val copy : t -> t
(** An independent copy holding only the unretired words: a checkpoint
    image, or a node's set restored from one. *)

(** Transaction sets: one {!Idset.t} per origin node over
    [Ids.txn.local], so each origin's ids stay dense. *)
module Txns : sig
  type t

  val create : horizon:float -> t

  val mem : t -> Ids.txn -> bool
  (** [false] for {!Ids.genesis}. *)

  val add : t -> Ids.txn -> now:float -> unit
  (** Raises [Invalid_argument] on a negative origin ({!Ids.genesis}). *)

  val cardinal : t -> int
  (** Members in unretired words, over all origins. *)

  val copy : t -> t
end
