(** Per-node log of internally-committed transactions (§III-A).

    When an update transaction reaches the head of the CommitQ and applies
    its writes on node [i], its commit vector clock is appended here.  The
    log answers the two questions the read protocol asks:

    - [most_recent_vc]: the clock of the latest internally-committed
      transaction, used to initialise read-only transactions' visibility
      bounds and to admit first reads (Alg. 6 line 5);
    - [visible_max]: the entry-wise maximum over the [VisibleSet] of
      Alg. 6 lines 6–9 — the freshest snapshot compatible with what the
      reading transaction has already observed.

    The log is seeded with a genesis all-zero entry so the visible set is
    never empty. *)

type entry = { txn : Ids.txn; vc : Vclock.t; ws : Ids.key list }
(** One internal commit: the transaction, its commit clock, and its write
    set (key names, for propagation bookkeeping). *)

type t

val create : nodes:int -> node:int -> t
(** [create ~nodes ~node] is the log of node [node] in a cluster of
    [nodes] nodes, seeded with the genesis all-zero entry. *)

val node : t -> int
(** The owning node's index (fixed at {!create}). *)

val add : t -> txn:Ids.txn -> vc:Vclock.t -> ws:Ids.key list -> unit
(** Append an internal commit. *)

val most_recent_vc : t -> Vclock.t
(** Commit clock of the latest internally-committed transaction (the
    genesis all-zero clock while the log is empty). *)

val most_recent_local : t -> int
(** [most_recent_local t] = entry [node t] of {!most_recent_vc}. *)

val committed_max : t -> Vclock.t
(** Entry-wise maximum over every clock ever logged (survives pruning). *)

val visible_max :
  t ->
  has_read:bool array ->
  bound:Vclock.t ->
  cutoff:int ->
  Vclock.t
(** Entry-wise maximum over logged clocks [vc] such that (a) for every node
    [w] with [has_read.(w)], [vc.(w) <= bound.(w)], and (b) the entry's
    local component [vc.(node t)] is strictly below [cutoff].  The cutoff
    is the smallest insertion snapshot among the snapshot-queue writers the
    reader must serialize before: a coherent local snapshot is a prefix of
    this node's apply order, so everything at or after the first invisible
    writer is invisible too.  Pass [max_int] when nothing is excluded.
    Scans newest-first and stops early once the accumulated maximum
    provably cannot grow. *)

val size : t -> int
(** Number of retained entries (shrinks under {!prune_covered}). *)

val prune_covered : t -> watermark:Vclock.t -> int
(** Watermark-driven pruning: drop the longest prefix of entries whose
    clocks are entry-wise [<= watermark] (always keeping at least one
    entry) and return how many were dropped.  The dropped contributions are
    folded into an internal floor that seeds every later {!visible_max},
    so — provided [watermark] is dominated by every live read-only bound
    and below every present or future snapshot-queue cutoff — query results
    are exactly what they would have been without pruning. *)

val floor : t -> Vclock.t
(** Entry-wise maximum over every entry dropped by {!prune_covered} (the
    all-zero clock before the first covered prune).  Exposed so durability
    checkpoints can persist it. *)

val restore_floor : t -> Vclock.t -> unit
(** Reinstall a {!floor} captured by a checkpoint (redo recovery rebuilds
    the log from scratch and would otherwise lose the pruned entries'
    contributions). *)

val entries : t -> entry list
(** Newest first (tests only). *)
