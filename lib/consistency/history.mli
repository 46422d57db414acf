(** Execution histories.

    Protocol implementations record the externally observable events of
    every transaction here; the {!Checker} then validates consistency
    properties offline.  Recording is optional (benchmarks disable it), and
    cheap: the log is columnar, three ints and one unboxed float per event
    in blocks allocated on first use (so a disabled recorder allocates
    nothing).  Word 0 holds the tag and its small fields, word 1 the
    transaction as {!Ids.pack}, word 2 the packed writer of a read or where
    a commit's write set starts in a side column; [seq] is the index.  The
    encoding inherits [Ids.pack]'s limits ([local < 2^40], [node < 2^22]);
    keys must lie within [±2^59].  Reading decodes, so it allocates.

    Version identity follows Adya: a version of a key is named by the
    transaction that wrote it, with [Ids.genesis] naming the initial
    version. *)

open Sss_data

type event =
  | Begin of { txn : Ids.txn; ro : bool; node : Ids.node }
  | Read of { txn : Ids.txn; key : Ids.key; writer : Ids.txn }
      (** [txn] observed the version of [key] written by [writer]. *)
  | Install of { txn : Ids.txn; key : Ids.key }
      (** A new version of [key] by [txn] became the newest (recorded once,
          at the key's primary replica, in application order). *)
  | Commit of { txn : Ids.txn; ws : Ids.key list }
      (** External commit: the client was informed of success.  For
          read-only transactions this is their (immediate) commit.  [ws] is
          the write set the client believes durable — the {!Checker} uses it
          to reject torn commits (acked but only partially installed). *)
  | Abort of { txn : Ids.txn }

type stamped = { at : float; seq : int; event : event }

type t

val create : ?enabled:bool -> unit -> t
(** [enabled] defaults to [true]; a disabled recorder drops everything. *)

val enabled : t -> bool
(** Whether this recorder keeps events. *)

val record : t -> at:float -> event -> unit
(** Append an event stamped with virtual time [at]. *)

val iter : t -> (seq:int -> at:float -> event -> unit) -> unit
(** Decode the events in recording order ([seq] ascending). *)

val events : t -> stamped list
(** In recording order, as a list: it allocates the whole history again,
    so it is meant for tests. *)

val length : t -> int
(** Events recorded so far. *)

val pp_event : Format.formatter -> event -> unit
(** Human-readable event, for test failure output. *)
