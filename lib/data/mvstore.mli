(** Per-node multi-version key repository, arena-backed.

    Each key holds a chain of versions, newest first.  A version records the
    value, the commit vector clock of the transaction that produced it, and
    that transaction's identifier (used by the consistency checker to name
    versions).  Keys are initialised with a genesis version carrying the
    all-zero clock.

    {b Representation} (behaviorally invisible; docs/ARCHITECTURE.md "The
    version store"):

    - Versions live in int-indexed {e slots} of growable parallel arrays
      (value, packed writer, clock reference, next-older link) instead of
      boxed records in per-key lists; the online GC returns slots to a
      free list that {!install} recycles, so steady-state churn allocates
      nothing.
    - Commit clocks live in a per-store {e clock arena}: the newest version
      of a chain holds a full clock cell, reference-counted so one cell is
      shared across a transaction's whole write set; every older version
      stores only the sparse delta against its newer neighbour, decoded
      newest-first into a single scratch clock on {!select} — never
      allocated per read.  Genesis (all-zero) clocks are interned.
    - Genesis versions whose value is the boot default are fully implicit
      (derived from the key on demand); keys are interned to dense int
      handles so the GC sweep cursor never hashes.

    Reads therefore return opaque {!slot} handles with O(1) accessors; the
    decoded {!version} record remains for cold paths ({!chain},
    {!restore_chain}).  A slot handle is only valid until the next mutation
    of its store ({!install}/{!truncate_covered}/GC may recycle it). *)

type version = {
  value : string;
  vc : Vclock.t;  (** commit vector clock of the writer *)
  writer : Ids.txn;
}
(** Decoded view of one version (cold paths: {!chain}, {!restore_chain}). *)

type t

type slot
(** Opaque reference to a stored version; valid until the store mutates. *)

val create : nodes:int -> t
(** [create ~nodes] is an empty store on a cluster of [nodes] nodes (fixes
    the clock size of genesis versions). *)

val reserve : t -> int -> unit
(** [reserve t n] pre-sizes the key index for [n] keys (exact dense
    arrays, minimal hash capacity), avoiding growth-doubling slack.  The
    boot path calls it with the node's replica count before the
    {!init_key} loop; purely an allocation hint — never required. *)

val init_key : t -> Ids.key -> value:string -> unit
(** Install the genesis version for [key]. Idempotent. *)

val mem : t -> Ids.key -> bool
(** Whether [key] has been initialised (holds at least its genesis
    version). *)

val last : t -> Ids.key -> slot
(** Newest version. @raise Not_found if the key was never initialised. *)

val install : t -> Ids.key -> value:string -> vc:Vclock.t -> writer:Ids.txn -> unit
(** Prepend a new newest version.  The caller (the CommitQ drain) guarantees
    installation order follows the node-local commit order.  [vc] is
    adopted into the clock arena: physically re-passing one clock across a
    write set shares a single reference-counted cell. *)

val chain : t -> Ids.key -> version list
(** All versions, newest first (decoded fresh — cold paths only). *)

val select : t -> Ids.key -> skip:(Vclock.t -> bool) -> slot
(** Walk the chain newest-first and return the first version whose commit
    clock [skip] rejects.  The clock passed to [skip] is a scratch decode
    {e borrowed} from the store: it must not be retained, and [skip] must
    not re-enter this store.  The genesis version is never skipped if
    everything else is (its zero clock satisfies every visibility bound),
    so [select] always returns. @raise Not_found on unknown key. *)

val slot_value : t -> slot -> string
(** The stored value (implicit genesis values are derived on demand). *)

val slot_writer : t -> slot -> Ids.txn
(** The writing transaction (allocates the identifier record). *)

val slot_writer_is : t -> slot -> Ids.txn -> bool
(** [slot_writer_is t s w] = [Ids.equal_txn (slot_writer t s) w] without
    allocating (single packed-int compare). *)

val truncate_covered : t -> Ids.key -> watermark:Vclock.t -> int
(** Watermark-driven collection: keep the newest version whose clock is
    entry-wise [<= watermark] together with everything newer, and drop the
    rest, returning how many versions were dropped.  If no version is
    covered the chain is untouched.  Safe whenever [watermark] is dominated
    by every live (and, being monotone, every future) read-only snapshot
    bound: {!select} walks newest-first and stops at the kept covered
    version at the latest. *)

val sweep_covered : t -> watermark:Vclock.t -> budget:int -> int
(** Advance the store's round-robin sweep cursor by up to [budget] chains,
    applying {!truncate_covered} to each; returns the versions dropped.
    Chains are visited in creation order (deterministic — never Hashtbl
    order) over the dense handle index (no hashing), wrapping around once
    the pass completes, so repeated calls amortize full-store coverage.
    This is what reclaims keys written once and never again: their
    superseded version only becomes watermark-covered long after any
    apply-time hook last saw the key. *)

val chains : t -> int
(** Number of version chains (initialised keys) — O(1); sizes the sweep
    budget. *)

val restore_chain : t -> Ids.key -> version list -> unit
(** Replace [key]'s whole chain with [versions] (newest first; a no-op when
    empty).  Used by redo recovery and tests — normal operation only ever
    prepends through {!install}. *)

val keys : t -> Ids.key list
(** Every initialised key, sorted ascending. *)

val version_count : t -> int
(** Total number of stored versions, across all keys (for tests and GC
    telemetry). *)

(** {2 Checkpoint images}

    Durable checkpoints deep-copy the store.  An {!image} is an
    [Array.blit] bulk copy of the arenas — no per-version traversal, no
    re-boxing — and {!restore} rebuilds a store from it wholesale. *)

type image

val image_of : t -> image
(** Deep copy via bulk array blits.  The image is immutable and reusable
    across multiple {!restore}s (values are shared structurally — strings
    are immutable). *)

val restore : t -> image -> unit
(** Replace [t]'s entire contents with the image's.  The image must come
    from a store created with the same [nodes]. *)

val image_bytes : image -> int
(** On-disk size model of the image, in the spirit of [Message.wire_size]:
    key index + live slots verbatim, full clocks at 8 bytes/entry, delta
    clocks priced with the {!Vcodec} zig-zag varint codec (the same
    compression the wire uses, applied at rest). *)

(** {2 Resident-storage accounting}

    All counters are maintained incrementally; {!mem_words} is O(1) apart
    from sizing the key-handle table. *)

type mem = {
  versions : int;  (** live versions (incl. implicit genesis) *)
  slot_words : int;  (** capacity of the four parallel slot arrays *)
  clock_words : int;  (** full-clock + delta arena capacity *)
  clock_free_words : int;  (** of which parked on arena free lists *)
  index_words : int;  (** key interning: handle table + dense arrays *)
  value_words : int;  (** boxed value strings (headers included) *)
  free_slots : int;  (** recycled slots awaiting reuse *)
}

val mem_words : t -> mem

val mem_zero : mem
(** Fold seed for cluster-wide aggregation. *)

val mem_add : mem -> mem -> mem
(** Field-wise sum. *)

val mem_total : mem -> int
(** Total resident words: slots + clocks + index + values. *)

val words_per_version : mem -> float
(** [mem_total / versions] (0 when empty) — the headline footprint metric
    gated by bench/smoke.sh and asserted by [stress --open]. *)
