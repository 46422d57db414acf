(** Walter-style Parallel Snapshot Isolation competitor (§V of the paper).

    Walter is included in the paper's evaluation as the fast-but-weaker
    yardstick: its read-only transactions are purely local (never abort,
    never block updates), its update transactions conflict-check only
    write-write pairs, and commits propagate asynchronously — so snapshots
    on different sites may order non-conflicting transactions divergently
    (PSI's "long fork", demonstrably not serializable; see
    [test_baselines.ml] and [examples/document_sync.ml]).

    [begin_txn] snapshots the home site's applied prefix (the start vector
    timestamp); [read] returns the newest version within it, blocking only
    until the contacted replica has applied the snapshot.  [commit] of a
    read-only transaction is always [true] and sends nothing; an update is
    write-write checked at each written key's preferred site (a local fast
    path when they all live at the home site), then the client is answered
    and the writes propagate in per-site commit order.  After a crash,
    [restart_node] also re-applies and re-propagates own-site commits past
    the applied prefix and pulls the remote-site commits missed while down.

    Deployment parameters are shared with SSS ({!Sss_kv.Config.t}) so the
    experiment harness drives every system identically. *)

include Sss_kv.Runtime.STORE

val checkpoint_chains : cluster -> Sss_data.Ids.node -> Chains.t option
(** The chains of the node's last completed checkpoint image (tests). *)

val latest : cluster -> node:Sss_data.Ids.node -> Sss_data.Ids.key -> string * Sss_data.Ids.txn
(** Value and writer of the key's newest version applied at the node (tests).
    @raise Invalid_argument if the node does not replicate the key. *)
