(** Per-node multi-version key repository.

    Each key holds a chain of versions, newest first.  A version records the
    value, the commit vector clock of the transaction that produced it, and
    that transaction's identifier (used by the consistency checker to name
    versions).  A store holds a fixed key set, given at {!create}: the
    node's replicas under the static placement (§II).  Every key starts at
    a genesis version carrying the all-zero clock.

    {b Representation} (behaviorally invisible; docs/ARCHITECTURE.md "The
    version store" has the details): versions are int-indexed {e slots} of
    parallel columns (value, packed writer, the writer's commit clock by
    reference, next-older link) in 64-slot copy-on-write {!Col} blocks,
    recycled through a free list the online GC feeds; genesis versions are
    implicit, a state byte a key; a key's handle is its position in the
    key array given at {!create}, which the store holds by reference.

    Reads therefore return opaque {!slot} handles with O(1) accessors; the
    decoded {!version} record remains for the cold path {!chain}.  A slot
    handle is only valid until the next mutation of its store
    ({!install}/{!truncate_covered}/GC may recycle it). *)

type version = {
  value : string;
  vc : Vclock.t;  (** commit vector clock of the writer *)
  writer : Ids.txn;
}
(** Decoded view of one version (cold path: {!chain}). *)

type t

type slot
(** Opaque reference to a stored version; valid until the store mutates. *)

val create : nodes:int -> keys:Ids.key array -> t
(** [create ~nodes ~keys] is a store on a cluster of [nodes] nodes (which
    fixes the clock size of genesis versions) holding every key of [keys]
    at its genesis version, valued [Ids.boot_value key].  A strictly
    ascending [keys] (as {!Replication.keys_at} returns) is held by
    reference and must never be mutated afterwards; any other array is
    sorted and deduplicated into a private copy first.  Allocates the
    head column and a state byte a key, nothing per key beyond that. *)

val mem : t -> Ids.key -> bool
(** Whether [key] is one of the store's keys. *)

val last : t -> Ids.key -> slot
(** Newest version. @raise Not_found if [key] is not one of the store's
    keys. *)

val install : t -> Ids.key -> value:string -> vc:Vclock.t -> writer:Ids.txn -> unit
(** Prepend a new newest version.  The caller (the CommitQ drain) guarantees
    installation order follows the node-local commit order.  [vc] is kept
    by reference, not copied: it must be the writer's published commit
    clock, never mutated after the call.  Passing one clock across a write
    set shares it. *)

val chain : t -> Ids.key -> version list
(** All versions, newest first (cold paths only).  Each [vc] is the clock
    its writer installed, physically. *)

val select : t -> Ids.key -> skip:(Vclock.t -> bool) -> slot
(** Walk the chain newest-first and return the first version whose commit
    clock [skip] rejects.  [skip] sees each version's own stored clock,
    which it must not mutate.  The genesis version is never skipped if
    everything else is (its zero clock satisfies every visibility bound),
    so [select] always returns. @raise Not_found if [key] is not one of the
    store's keys. *)

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
    Chains are visited in descending key order (deterministic — never
    Hashtbl order) over the handle index (no search), wrapping around once
    the pass completes, so repeated calls amortize full-store coverage.
    This is what reclaims keys written once and never again: their
    superseded version only becomes watermark-covered long after any
    apply-time hook last saw the key. *)

val chains : t -> int
(** Number of version chains (the store's keys) — O(1); sizes the sweep
    budget. *)

val keys : t -> Ids.key list
(** Every key of the store, sorted ascending. *)

val version_count : t -> int
(** Total number of stored versions, across all keys (for tests and GC
    telemetry). *)

(** {2 Checkpoint images}

    An {!image} is a frozen view of the store: copies of the per-key head
    and state columns and a {!Col.freeze} of the slot blocks, which it
    shares with the store until the store next writes to each (the key
    array is not copied).  It costs the two by-key columns and the block
    spine, not the versions. *)

type image

val image_of : t -> image
(** Freeze the store; its byte size is priced here, once.  The image is
    immutable and reusable across multiple {!restore}s. *)

val restore : t -> image -> unit
(** Replace [t]'s entire contents with the image's, sharing its slot
    blocks until [t] writes to them.  The image must come from a store
    created with the same [nodes] over the same key array (a crashed
    node's fresh store is built from the same placement).
    @raise Invalid_argument if the cluster size or key count differs. *)

val image_bytes : image -> int
(** On-disk size model of the image, in the spirit of [Message.wire_size]:
    64 bytes plus 17 a key for the index, 12 bytes plus the value a live
    version, and its clock.  A chain's head clock costs [8 * nodes] bytes.
    An older clock is written as the sparse delta against its newer
    neighbour when that delta's [k] differing entries satisfy
    [1 + 2k < nodes + 1], pricing each at 1 byte plus the {!Vcodec} zig-zag
    varint of [newer - older] (the wire's codec, applied at rest), and at
    [8 * nodes] bytes otherwise. *)

(** {2 Resident-storage accounting}

    The counters are maintained incrementally, except [clock_words], which
    {!mem_words} computes with one pass over the live versions and a sort:
    a gauge, not a hot path. *)

type mem = {
  versions : int;  (** live versions (incl. implicit genesis) *)
  slot_words : int;  (** the slot blocks, their spine and marks *)
  clock_words : int;
      (** [1 + nodes] per distinct writer of a live version: a write set
          shares its commit clock *)
  index_words : int;
      (** the key array (shared with the placement, counted here once per
          store), the head column and the state bytes *)
  value_words : int;  (** boxed value strings (headers included) *)
  free_slots : int;  (** recycled slots awaiting reuse *)
}

val mem_words : t -> mem

val str_words : int -> int
(** Heap words of a boxed string of that many bytes, header included: the
    value term of this model, which the baselines' store gauges share. *)

val mem_zero : mem
(** Fold seed for cluster-wide aggregation. *)

val mem_add : mem -> mem -> mem
(** Field-wise sum. *)

val mem_total : mem -> int
(** Total resident words: slots + clocks + index + values. *)

val words_per_version : mem -> float
(** [mem_total / versions] (0 when empty) — the headline footprint metric
    gated by bench/smoke.sh and asserted by [stress --open]. *)
