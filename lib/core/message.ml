(** Wire messages of the SSS protocol.

    Sent over {!Sss_net.Network}; [priority] mirrors the paper's optimized
    network component (§V): [Remove] messages unblock external commits and
    therefore jump every queue; 2PC completion traffic ([Decide], [Vote],
    [Ack]) outranks new work. *)

open Sss_data

type payload =
  | Read_request of {
      req : int;
      txn : Ids.txn;
      key : Ids.key;
      vc : Vclock.t;
      has_read : bool array;
      is_update : bool;
    }
  | Read_return of {
      req : int;
      value : string;
      vc : Vclock.t;
      writer : Ids.txn;
      propagated : (Ids.txn * int) list;
      parked_coord : Ids.node option;
          (** when the returned version's writer is still parked
              (internally but not externally committed), its coordinator:
              the reading update transaction must chain its own client
              response behind that writer's external commit *)
    }
  | Prepare of {
      txn : Ids.txn;
      coord : Ids.node;
      vc : Vclock.t;
      rs : (Ids.key * Ids.txn) list;
          (** read keys with the version (writer) observed, for validation *)
      ws : (Ids.key * string) list;
      propagated : (Ids.txn * int) list;
    }
  | Vote of { txn : Ids.txn; ok : bool; vc : Vclock.t }
  | Decide of { txn : Ids.txn; vc : Vclock.t; outcome : bool }
  | Ack of { txn : Ids.txn }
  | Finalize of { txn : Ids.txn }
      (** all write replicas acknowledged the pre-commit wait: drop the
          writer entries (re-checking for newly arrived blocking readers)
          and confirm, after which the coordinator informs the client *)
  | Finalize_ack of { txn : Ids.txn }
  | Remove of { txn : Ids.txn }
      (** a read-only transaction committed; drop its snapshot-queue
          entries *)
  | Forward_remove of { reader : Ids.txn; writer : Ids.txn }
      (** relay a [Remove] along a propagation chain: [writer]'s
          coordinator must clean the replicas of [writer]'s write-set *)
  | Wait_finalized of { writer : Ids.txn; req : int }
      (** ask [writer]'s coordinator to answer once [writer] has
          externally committed (immediately if it already has) *)
  | Finalized of { req : int }
  | Dquery of { req : int; txn : Ids.txn }
      (** durability mode: a participant holding [txn] in doubt (prepared
          but without a decide, e.g. after a crash on either side) asks the
          coordinator for the durable outcome *)
  | Doutcome of { req : int; verdict : Vclock.t Runtime.verdict }
      (** answer to a {!Dquery}; a commit carries its clock, and [driving]
          tells the participant whether the coordinator still runs the
          completion protocol (Finalize will arrive) or has itself crashed
          and restarted (the participant must self-finalize) *)
  | Reader_probe of { reader : Ids.txn }
      (** durability mode: a pre-commit wait blocked on [reader]'s
          snapshot-queue entry asks the reader's home node whether it is
          still running.  Crashes orphan reader entries — a [Remove]
          processed before the crash leaves no durable trace, so redo of a
          prepare re-inserts propagated readers that will never be removed
          again, and a home-node crash kills readers whose [Remove] was
          never sent at all *)
  | Reader_done of { reader : Ids.txn }
      (** answer to a {!Reader_probe}, sent only when the reader has
          finished: the prober treats it exactly like the reader's own
          {!Remove} *)
  | Recovered of { node : int }
      (** durability mode: [node] finished log replay and rejoined.  Each
          receiver runs one eager {!Reader_probe} pass over its own
          snapshot queues — entries orphaned by the crash on keys no
          writer touches again would otherwise linger forever *)
  | Tracked of { token : int; inner : payload }
      (** fault-tolerance mode only: [inner] sent over the at-least-once
          transport ({!Sss_net.Reliable}); the receiver answers every copy
          with {!Delivered} and processes [inner] exactly once *)
  | Delivered of { token : int }  (** receipt for a {!Tracked} envelope *)

let rec priority = function
  | Remove _ | Forward_remove _ | Finalize _ | Finalize_ack _ | Wait_finalized _ | Finalized _ -> 10
  | Decide _ -> 40
  | Vote _ | Ack _ | Dquery _ | Doutcome _ | Reader_probe _ | Reader_done _ | Recovered _ -> 60
  | Read_request _ | Read_return _ | Prepare _ -> 100
  | Tracked { inner; _ } -> priority inner  (* the envelope rides at its payload's rank *)
  | Delivered _ -> 10  (* receipts unblock retry bookkeeping; never queue them *)

(* Wire-size model: 16-byte header, 8 bytes per scalar/txn id, 4 per key,
   payload strings verbatim; vector clocks either raw (8 bytes/entry) or
   varint-compressed (§III-A metadata compression). *)
let vc_size ~compress vc = if compress then 2 + Vcodec.size vc else Vcodec.raw_size vc

let rec wire_size ~compress payload =
  let header = 16 in
  let txn = 8 and key = 4 and scalar = 8 in
  let entries l per = List.fold_left (fun acc x -> acc + per x) 0 l in
  header
  +
  match payload with
  | Tracked { inner; _ } -> scalar + wire_size ~compress inner - header
  | Delivered _ -> scalar
  | Read_request { vc; has_read; _ } ->
      scalar + txn + key + vc_size ~compress vc + ((Array.length has_read + 7) / 8)
  | Read_return { value; vc; propagated; _ } ->
      scalar + txn + String.length value + vc_size ~compress vc
      + entries propagated (fun _ -> txn + scalar)
  | Prepare { vc; rs; ws; propagated; _ } ->
      txn + scalar + vc_size ~compress vc
      + entries rs (fun _ -> key + txn)
      + entries ws (fun (_, v) -> key + String.length v)
      + entries propagated (fun _ -> txn + scalar)
  | Vote { vc; _ } -> txn + 1 + vc_size ~compress vc
  | Decide { vc; _ } -> txn + 1 + vc_size ~compress vc
  | Ack _ | Finalize _ | Finalize_ack _ | Remove _ | Reader_probe _ | Reader_done _ -> txn
  | Recovered _ -> scalar
  | Forward_remove _ -> 2 * txn
  | Wait_finalized _ -> txn + scalar
  | Finalized _ -> scalar
  | Dquery _ -> scalar + txn
  | Doutcome { verdict; _ } -> (
      scalar + 1
      + match verdict with
        | Runtime.Committed { payload = vc; _ } -> vc_size ~compress vc
        | Aborted | Undecided -> 0)

(* [Tracked] is transparent here: fault plans target logical message kinds,
   not the transport envelope. *)
let rec kind_name = function
  | Tracked { inner; _ } -> kind_name inner
  | Delivered _ -> "delivered"
  | Read_request _ -> "read_request"
  | Read_return _ -> "read_return"
  | Prepare _ -> "prepare"
  | Vote _ -> "vote"
  | Decide _ -> "decide"
  | Ack _ -> "ack"
  | Finalize _ -> "finalize"
  | Finalize_ack _ -> "finalize_ack"
  | Wait_finalized _ -> "wait_finalized"
  | Finalized _ -> "finalized"
  | Remove _ -> "remove"
  | Forward_remove _ -> "forward_remove"
  | Dquery _ -> "dquery"
  | Doutcome _ -> "doutcome"
  | Reader_probe _ -> "reader_probe"
  | Reader_done _ -> "reader_done"
  | Recovered _ -> "recovered"
