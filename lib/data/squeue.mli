(** Snapshot-queues — the paper's core new data structure (§III-A).

    Each key has one snapshot-queue holding the read-only transactions
    that read the key.  Entries carry an {e insertion snapshot}: the value
    of the transaction's vector clock at this node's position when the
    entry was added.  Conflicting transactions with a smaller insertion
    snapshot serialize first.

    Reader entries come in two flavours:
    - {e direct}: the transaction itself read this key here (Alg. 6);
    - {e propagated}: a transitive anti-dependency installed during an
      update transaction's Pre-Commit (Alg. 3 lines 4-6).  A propagated
      entry's [sid] was minted on the node where the read happened, so it is
      not comparable with this node's snapshots; writers treat every
      propagated entry as blocking (the reader is known to serialize before
      the writer chain that carried it here).

    Following the implementation note in §V, readers and writers are kept
    apart.  This module holds the reader sequence, ordered by
    [(sid, txn)].  The writer sequence is not stored: a writer stands on a
    key while it is parked (its stamp is in the node's parked index,
    {!Stampset}) and its pre-commit wait has not released the key (the
    prepared entry records the released keys). *)

type entry = { txn : Ids.txn; sid : int; propagated : bool }

type t

val create : unit -> t

val insert_read : t -> txn:Ids.txn -> sid:int -> unit
(** Add a direct read-only entry.  Re-inserting the same [(txn, sid)] pair
    is a no-op (a transaction may legitimately touch the same key through
    several replicas or repeated reads). *)

val insert_propagated : t -> txn:Ids.txn -> sid:int -> unit
(** Add a propagated (transitive anti-dependency) reader entry. *)

val remove : t -> Ids.txn -> bool
(** Drop every entry of the given transaction; returns whether anything was
    removed. *)

val mem : t -> Ids.txn -> bool

val readers : t -> entry list
(** All read-only entries (direct and propagated) ordered by insertion
    snapshot — what an update transaction's read collects into its
    [PropagatedSet] (Alg. 6 line 25). *)

val blocks_writer : t -> sid:int -> bool
(** Pre-Commit exit condition (Alg. 4): [true] while there is a direct
    reader with insertion snapshot strictly below [sid], or any propagated
    reader at all (a propagated entry's snapshot was minted on another
    node, so it is treated conservatively as blocking). *)

val is_empty : t -> bool

val length : t -> int

val pp : Format.formatter -> t -> unit
