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
    execution, in the agreed order.  [abort] withdraws dispatched pieces so
    they never gate other transactions.  Under durability the coordinator
    re-sends its commit to the replicas whose acks are missing (the
    runtime's completion wait); a replica positions a transaction once and
    answers a re-send, one ack per local piece, only after its last local
    piece ran.  After a crash, [restart_node] re-executes positioned
    transactions cut short by the crash in final-position order and spawns
    aliveness watchdogs that withdraw restored pieces whose driving client
    no longer exists.

    Deployment parameters are shared with SSS ({!Sss_kv.Config.t}); the
    paper disables replication for ROCOCO comparisons (degree 1). *)

include Sss_kv.Runtime.STORE

val latest : cluster -> node:Sss_data.Ids.node -> Sss_data.Ids.key -> string * Sss_data.Ids.txn
(** Value and writer of the key's last executed piece at the node (tests).
    @raise Invalid_argument if the node does not replicate the key. *)
