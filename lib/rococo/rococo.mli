(** ROCOCO-style two-round concurrency control competitor (§V of the
    paper, Figures 6 and 8).

    Configured as the paper does — every piece deferrable: update
    transactions never abort; their pieces are buffered in round 1 and
    executed in an agreed global order in round 2 (reorder instead of
    abort).  Read-only transactions are the contrast with SSS: they wait
    for buffered conflicting pieces and re-read until two consecutive
    rounds observe identical versions, aborting after a bounded number of
    attempts — so their cost grows with the read-set size and contention
    (the effect Figure 8 measures).

    An update's [read] dispatches the key's piece and returns the
    dispatch-time value; the authoritative read-modify-write happens at
    execution, in the agreed order.  [abort] cancels dispatched pieces so they
    never gate other transactions.  Under durability a piece's watchdog
    withdraws it once its home no longer lists the transaction in flight:
    after a home crash, or an abort whose [Cancel] was lost.  An update handle
    neither committed nor aborted keeps its pieces, and their watchdogs poll
    for ever.  The coordinator re-sends its commit to replicas whose acks are
    missing; a replica positions a transaction once and acks a re-send, one
    per local piece, after its last local piece ran.  [restart_node]
    re-executes the positioned transactions a crash cut short, in
    final-position order, and gives each restored piece a watchdog.

    Deployment parameters are shared with SSS ({!Sss_kv.Config.t}); the
    paper disables replication for ROCOCO comparisons (degree 1). *)

include Sss_kv.Runtime.STORE

val latest : cluster -> node:Sss_data.Ids.node -> Sss_data.Ids.key -> string * Sss_data.Ids.txn
(** Value and writer of the key's last executed piece at the node (tests).
    @raise Invalid_argument if the node does not replicate the key. *)
