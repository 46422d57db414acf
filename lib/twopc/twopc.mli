(** 2PC-baseline competitor (§V of the paper).

    "All transactions execute as SSS's update transactions; read-only
    transactions validate their execution, therefore they can abort; and no
    multi-version data repository is deployed."  Like SSS it guarantees
    external consistency — at the cost of aborting read-only transactions
    and holding locks across the commit round.

    [read_only] is accepted by [begin_txn] for interface parity: such
    transactions simply never write, and still validate and may abort.
    [commit] runs the full 2PC (lock, validate, apply) for every
    transaction; the client is informed once every write replica applied.
    After a crash, [restart_node] re-takes the locks of in-doubt prepared
    transactions and queries each one's coordinator until its outcome is
    known.

    The deployment parameters are shared with SSS ({!Sss_kv.Config.t}) so
    the experiment harness can run both under identical conditions; the
    snapshot-queuing-specific fields are ignored. *)

include Sss_kv.Runtime.STORE

val latest : cluster -> node:Sss_data.Ids.node -> Sss_data.Ids.key -> string * Sss_data.Ids.txn
(** Value and writer of the key's last applied write at the node (tests).
    @raise Invalid_argument if the node does not replicate the key. *)
