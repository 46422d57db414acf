(** Per-node commit queue (§III-A, "Commit repositories").

    Update transactions enter the queue in their 2PC prepare phase with a
    provisional vector clock and status [Pending]; the Decide message
    upgrades them to [Ready] with their final commit vector clock, which may
    reposition them.  Transactions leave the queue — and their writes become
    visible — only from the head, and only when [Ready].  Ordering is by the
    queue's node entry of the vector clock, with the transaction id as a
    deterministic tie-break.

    A [Ready] head is safe to commit because a [Pending] transaction's final
    clock entry can only grow (the coordinator takes entry-wise maxima), so
    nothing still pending can end up ordered before a ready head. *)

type status = Pending | Ready

type entry = { txn : Ids.txn; vc : Vclock.t; status : status }

type t

val create : node:int -> t
(** [create ~node] orders entries by [Vclock.get vc node]. *)

val put : t -> txn:Ids.txn -> vc:Vclock.t -> unit
(** Insert as [Pending]. @raise Invalid_argument if the txn is present. *)

val update : t -> txn:Ids.txn -> vc:Vclock.t -> unit
(** Set the final clock, mark [Ready], and reposition.  No-op if the
    transaction is not in the queue (it may already have been removed by an
    abort racing the decide). *)

val remove : t -> Ids.txn -> unit
(** Drop the transaction (abort path, or after its writes are applied). *)

val head : t -> entry option

val mem : t -> Ids.txn -> bool

val length : t -> int

val to_list : t -> entry list
(** Entries in queue order (for tests). *)

val exists_at_or_below : t -> bound:int -> bool
(** Is any queued transaction's current clock entry (at this queue's node)
    <= [bound]?  A pending transaction's final entry can only grow, so when
    this is false no queued transaction can end up ordered at or before
    [bound].  Used by the read protocol to wait until every commit covered
    by a visibility bound has been applied. *)
