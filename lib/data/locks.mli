(** Per-node lock table for the 2PC prepare phase.

    Locks are per key, shared (read validation) or exclusive (write
    installation), re-entrant per transaction, and acquired with a virtual-
    time timeout: SSS resolves distributed deadlock between concurrent
    prepares by timing out and voting abort (§III-E, 1 ms in the paper's
    testbed).

    The table holds a key's state only while some transaction locks it: the
    release that frees a key drops its state, and a waiter parked on the key
    looks the state up again when it wakes. *)

type mode = Shared | Exclusive

type t

val create : Sss_sim.Sim.t -> t
(** An empty lock table; the simulator drives its timeouts. *)

val acquire : t -> Ids.txn -> mode -> Ids.key -> timeout:float -> bool
(** Block the current fiber until the lock is granted or the timeout
    elapses; returns whether it was granted.  A transaction holding the
    exclusive lock is granted the shared lock on the same key, and may
    re-acquire either mode it already holds. *)

val acquire_all :
  t -> Ids.txn -> exclusive:Ids.key list -> shared:Ids.key list -> timeout:float -> bool
(** Acquire every lock (exclusive ones first, each set in sorted key order
    to reduce needless deadlocks).  On failure every lock the transaction
    holds at this node is released and [false] is returned. *)

val release_txn : t -> Ids.txn -> unit
(** Release everything the transaction holds and wake waiters. *)

val holds_exclusive : t -> Ids.txn -> Ids.key -> bool
(** Whether the transaction holds the exclusive lock on the key. *)

val holds_shared : t -> Ids.txn -> Ids.key -> bool
(** Whether the transaction holds the shared (or exclusive) lock. *)

val is_free : t -> Ids.key -> bool
(** Whether no transaction holds any lock on the key. *)

val key_count : t -> int
(** Number of keys the table holds state for: the locked keys (tests). *)

val locked_keys : t -> Ids.txn -> Ids.key list
(** Keys currently held by the transaction (tests). *)

val holder_count : t -> int
(** Number of transactions currently holding at least one lock (used by
    quiescence checks in tests). *)
