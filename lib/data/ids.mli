(** Identifiers shared across the store: nodes, keys, transactions. *)

type node = int
(** Nodes are numbered [0 .. n-1]. *)

type key = int
(** Keys are numbered [0 .. total_keys-1], as in the YCSB port of the
    paper's evaluation. *)

(** Globally unique transaction identifier: originating node plus a
    node-local sequence number. *)
type txn = { node : node; local : int }

val genesis : txn
(** Pseudo-transaction that wrote the initial version of every key. *)

val boot_value : key -> string
(** The value {!genesis} wrote to a key: ["init:<key>"], in every store. *)

val compare_txn : txn -> txn -> int
(** Total order: by node, then local sequence number. *)

val equal_txn : txn -> txn -> bool
(** Structural equality (avoids polymorphic compare on the hot path). *)

val txn_to_string : txn -> string
(** ["T<node>.<local>"], for logs and error messages. *)

val pp_txn : Format.formatter -> txn -> unit

val pack : txn -> int
(** Single-word encoding ([(node + 1) lsl 40 lor local]) for flat int-array
    storage; {!genesis} packs to [0].  Requires [local < 2^40] and
    [node < 2^22], both far beyond any simulated run. *)

val packed_node : int -> node
(** The node of a {!pack}ed identifier, read without unpacking it. *)

val unpack : int -> txn
(** Inverse of {!pack}: {!genesis} itself for [0], else a fresh record. *)

(** Mint node-local transaction identifiers. *)
module Gen : sig
  type t

  val create : node -> t
  (** A fresh generator for the node, starting at local id 0. *)

  val next : t -> txn
  (** The next identifier, never repeated. *)
end
