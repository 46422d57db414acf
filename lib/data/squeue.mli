(** Snapshot-queues — the paper's core new data structure (§III-A).

    Each key has one snapshot-queue holding (a) the read-only transactions
    that read the key and (b) the update transactions that overwrote it
    while a read-only transaction was reading it (i.e. writers parked in
    their Pre-Commit phase).  Entries carry an {e insertion snapshot}: the
    value of the transaction's vector clock at this node's position when
    the entry was added.  Conflicting transactions with a smaller insertion
    snapshot serialize first.

    Reader entries come in two flavours:
    - {e direct}: the transaction itself read this key here (Alg. 6);
    - {e propagated}: a transitive anti-dependency installed during an
      update transaction's Pre-Commit (Alg. 3 lines 4-6).  A propagated
      entry's [sid] was minted on the node where the read happened, so it is
      not comparable with this node's snapshots; writers treat every
      propagated entry as blocking (the reader is known to serialize before
      the writer chain that carried it here).

    Following the implementation note in §V, the queue is split in two —
    one sequence for readers and one for writers — so read-side scans do
    not traverse writer entries and vice versa.  Both sequences are kept
    ordered by [(sid, txn)]. *)

type entry = { txn : Ids.txn; sid : int; propagated : bool }

type t

val create : unit -> t

val insert_read : t -> txn:Ids.txn -> sid:int -> unit
(** Add a direct read-only entry.  Re-inserting the same [(txn, sid)] pair
    is a no-op (a transaction may legitimately touch the same key through
    several replicas or repeated reads). *)

val insert_propagated : t -> txn:Ids.txn -> sid:int -> unit
(** Add a propagated (transitive anti-dependency) reader entry. *)

val insert_write : t -> txn:Ids.txn -> sid:int -> unit
(** Add an update-transaction entry (Pre-Commit start). Idempotent like
    {!insert_read}. *)

val remove : t -> Ids.txn -> bool
(** Drop every entry of the given transaction; returns whether anything was
    removed. *)

val mem : t -> Ids.txn -> bool

val readers : t -> entry list
(** All read-only entries (direct and propagated) ordered by insertion
    snapshot — what an update transaction's read collects into its
    [PropagatedSet] (Alg. 6 line 25). *)

val writers : t -> entry list
(** Update entries ordered by insertion snapshot (used to build the
    [ExcludedSet], Alg. 6 line 7). *)

val blocks_writer : t -> sid:int -> bool
(** Pre-Commit exit condition (Alg. 4): [true] while there is a direct
    reader with insertion snapshot strictly below [sid], or any propagated
    reader at all (a propagated entry's snapshot was minted on another
    node, so it is treated conservatively as blocking). *)

val is_empty : t -> bool

val length : t -> int

val pp : Format.formatter -> t -> unit
