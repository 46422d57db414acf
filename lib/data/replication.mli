(** Replica placement.

    SSS assumes a general partial replication scheme with a local look-up
    function mapping keys to the nodes that store them (§II).  We use a
    deterministic hashed placement: a key's replica group is [degree]
    consecutive nodes starting at a pseudo-random offset derived from the
    key, which spreads load uniformly like the paper's YCSB deployment. *)

type t

val create : nodes:int -> degree:int -> total_keys:int -> t
(** @raise Invalid_argument if [degree] is not within [1 .. nodes]. *)

val replicas : t -> Ids.key -> Ids.node list
(** The nodes storing the key (constant, length [degree]). *)

val is_replica : t -> Ids.node -> Ids.key -> bool
(** Whether the node stores the key. *)

val keys_at : t -> Ids.node -> Ids.key array
(** Every key the node stores (precomputed; used to initialise stores and
    to draw node-local keys for the locality workload of Fig. 7). *)

val handle : Ids.key array -> Ids.key -> int
(** [handle keys k] is [k]'s position in the strictly ascending [keys]
    (such as {!keys_at} returns), or [-1]: the index every node store's
    per-key columns share.  A binary search that neither branches on the
    keys nor allocates. *)
