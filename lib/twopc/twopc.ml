open Sss_data
open Sss_net
open Sss_consistency

(* Single-version store: value and the writer that produced it (version
   identity, used for validation and by the consistency checker). *)
type cell = { mutable value : string; mutable writer : Ids.txn }

type msg =
  | Read_req of { req : int; key : Ids.key }
  | Read_ret of { req : int; value : string; writer : Ids.txn }
  | Prepare of {
      txn : Ids.txn;
      coord : Ids.node;
      rs : (Ids.key * Ids.txn) list;
      ws : (Ids.key * string) list;
    }
  | Vote of { txn : Ids.txn; ok : bool }
  | Decide of { txn : Ids.txn; outcome : bool }
  | Applied of { txn : Ids.txn }
  | Query of { req : int; txn : Ids.txn }
  | Outcome of { req : int; verdict : unit Sss_kv.Runtime.verdict }
  | Tracked of { token : int; inner : msg }
  | Delivered of { token : int }

let rec priority = function
  | Decide _ -> 40
  | Vote _ | Applied _ | Query _ | Outcome _ -> 60
  | Read_req _ | Read_ret _ | Prepare _ -> 100
  | Tracked { inner; _ } -> priority inner
  | Delivered _ -> 10

let rec message_kind = function
  | Read_req _ -> "read_request"
  | Read_ret _ -> "read_return"
  | Prepare _ -> "prepare"
  | Vote _ -> "vote"
  | Decide _ -> "decide"
  | Applied _ -> "applied"
  | Query _ -> "query"
  | Outcome _ -> "outcome"
  | Tracked { inner; _ } -> message_kind inner
  | Delivered _ -> "delivered"

type prep = {
  rs_local : (Ids.key * Ids.txn) list;
  ws_local : (Ids.key * string) list;
  coord : Ids.node;
}

(* Durability-mode write-ahead-log records (docs/DURABILITY.md).  Each is
   appended in the same DES event as the volatile mutation it describes;
   externally-visible actions await the flush. *)
type logrec =
  | PPrepared of { txn : Ids.txn; prep : prep }  (* participant voted yes *)
  | PAborted of { txn : Ids.txn }  (* participant saw Decide(false) *)
  | PDecided of { txn : Ids.txn }  (* coordinator decided commit *)
  | PApplied of { txn : Ids.txn }  (* participant applied the write set *)

(* Checkpoint image: a deep copy of everything redo recovery rebuilds,
   in deterministic (sorted) order. *)
type snap = {
  s_cells : (Ids.key * string * Ids.txn) list;
  s_ac : (unit, prep) Sss_kv.Runtime.image;
}

type node = {
  id : Ids.node;
  store : (Ids.key, cell) Hashtbl.t;
  locks : Locks.t;
  pending_reads : (string * Ids.txn) Rpc.Pending.t;
  ac : (unit, unit, prep) Sss_kv.Runtime.commitment;
  ack_boxes : (Ids.txn, Sss_kv.Runtime.acks) Hashtbl.t;
}

let make_node sim _config repl id =
  let store = Hashtbl.create 256 in
  Array.iter
    (fun k ->
      Hashtbl.replace store k { value = Ids.boot_value k; writer = Ids.genesis })
    (Replication.keys_at repl id);
  {
    id;
    store;
    locks = Locks.create sim;
    pending_reads = Rpc.Pending.create ();
    ac = Sss_kv.Runtime.commitment ();
    ack_boxes = Hashtbl.create 64;
  }

(* ---------- durability (Config.durability; docs/DURABILITY.md) ---------- *)

(* byte-size model for log records, same flavour as Message.wire_size *)
let prep_bytes (p : prep) =
  8 (* coord *)
  + List.fold_left (fun acc (_, _) -> acc + 12) 0 p.rs_local
  + List.fold_left (fun acc (_, v) -> acc + 4 + String.length v) 0 p.ws_local

let logrec_bytes = function
  | PPrepared { prep; _ } -> 16 + 8 + prep_bytes prep
  | PAborted _ | PDecided _ | PApplied _ -> 16 + 8

let snap_bytes (s : snap) =
  64
  + List.fold_left (fun acc (_, v, _) -> acc + 12 + String.length v) 0 s.s_cells
  + List.fold_left (fun acc (_, p) -> acc + 8 + prep_bytes p) 0 s.s_ac.entries
  + (8 * List.length s.s_ac.decided)
  + (8 * Idset.Txns.cardinal s.s_ac.fenced)

module Rt = Sss_kv.Runtime.Make (struct
  type nonrec msg = msg
  type nonrec node = node
  type nonrec logrec = logrec
  type nonrec snap = snap
  type ext = unit

  let system = "2pc"
  let priority = priority
  let kind_of = message_kind
  let tracked token inner = Tracked { token; inner }
  let receipt token = Delivered { token }
  let id (n : node) = n.id
  let make_node = make_node
  let record_bytes _ = logrec_bytes
  let snapshot_bytes _ = snap_bytes
end)

include Rt

module Ac = Commit (struct
  type vote = unit
  type decision = unit
  type nonrec prep = prep

  let state (n : node) = n.ac
  let merge () () = ()
  let query ~req txn = Query { req; txn }
  let outcome ~req verdict = Outcome { req; verdict }
  let locks (n : node) = n.locks
  let coord p = p.coord
  let held p = (List.map fst p.ws_local, List.map fst p.rs_local)
  let copy p = p
end)

let snap_of (node : node) =
  {
    s_cells =
      List.sort
        (fun (a, _, _) (b, _, _) -> Int.compare a b)
        (Hashtbl.fold (fun k (c : cell) acc -> (k, c.value, c.writer) :: acc)
           node.store [] [@order_ok]);
    s_ac = Ac.image node;
  }

type cluster = Rt.t

type handle = unit Rt.handle

let cell (node : node) key =
  match Hashtbl.find_opt node.store key with
  | Some c -> c
  | None -> invalid_arg "Twopc: unknown key"

let validate node rs =
  List.for_all
    (fun (k, observed) -> Ids.equal_txn (cell node k).writer observed)
    rs

let handle_decide t (node : node) ~txn ~outcome =
  match Hashtbl.find_opt node.ac.prepared txn with
  | None -> if not outcome then Ac.fence t node txn
  | Some prep ->
      Hashtbl.remove node.ac.prepared txn;
      if outcome then begin
        List.iter
          (fun (k, v) ->
            let c = cell node k in
            c.value <- v;
            c.writer <- txn;
            if is_primary t node.id k then record t (History.Install { txn; key = k }))
          prep.ws_local;
        (* the apply and its log record are made in the same DES event *)
        let lsn = log t node (PApplied { txn }) in
        Locks.release_txn node.locks txn;
        (* the coordinator (and through it the client) may only learn of
           the apply once it would survive a crash here *)
        if log_sync t node lsn then send t ~src:node.id ~dst:prep.coord (Applied { txn })
      end
      else begin
        (* presumed abort: the record spares recovery a query, but nothing
           externally visible depends on it — no flush wait *)
        ignore (log t node (PAborted { txn }) : int option);
        Locks.release_txn node.locks txn
      end

(* The termination watchdog of a yes vote: the coordinator's verdict is
   applied like the Decide it stands in for. *)
let watch t (node : node) txn prep ~linger =
  Ac.watch t node txn prep ~linger
    ~on_committed:(fun () ~driving:_ ->
      handle_decide t node ~txn ~outcome:true;
      false)
    ~on_aborted:(fun () -> handle_decide t node ~txn ~outcome:false)

let handle_prepare t (node : node) ~txn ~coord ~rs ~ws =
  let local_rs = List.filter (fun (k, _) -> Replication.is_replica t.repl node.id k) rs in
  let local_ws = List.filter (fun (k, _) -> Replication.is_replica t.repl node.id k) ws in
  let ok =
    (not (Ac.fenced node txn))
    && Locks.acquire_all node.locks txn
         ~exclusive:(List.map fst local_ws)
         ~shared:(List.map fst local_rs)
         ~timeout:Sss_kv.Config.lock_timeout
    && validate node local_rs
    && not (Ac.fenced node txn)
  in
  if not ok then begin
    Locks.release_txn node.locks txn;
    send t ~src:node.id ~dst:coord (Vote { txn; ok = false })
  end
  else begin
    let prep = { rs_local = local_rs; ws_local = local_ws; coord } in
    if Ac.prepare t node txn prep (PPrepared { txn; prep }) ~watch then
      send t ~src:node.id ~dst:coord (Vote { txn; ok = true })
  end

let rec dispatch t (node : node) ~src payload =
  match payload with
  | Tracked { token; inner } -> if receive t ~me:node.id ~src token then dispatch t node ~src inner
  | Delivered { token } -> Reliable.delivered t.rel token
  | Read_req { req; key } ->
      let c = cell node key in
      send t ~src:node.id ~dst:src (Read_ret { req; value = c.value; writer = c.writer })
  | Read_ret { req; value; writer } ->
      Rpc.Pending.resolve t.sim node.pending_reads req (value, writer)
  | Prepare { txn; coord; rs; ws } -> handle_prepare t node ~txn ~coord ~rs ~ws
  | Vote { txn; ok } -> Ac.vote_arrived t node txn ~ok ()
  | Decide { txn; outcome } -> handle_decide t node ~txn ~outcome
  | Applied { txn } -> ack_arrived t node.ack_boxes txn ~round:0
  | Query { req; txn } -> Ac.answer t node ~src ~req txn
  | Outcome { req; verdict } -> Ac.outcome_arrived t node ~req verdict

(* ------------- crash / recovery (durability mode) ------------- *)

let load_snap t (node : node) (s : snap) =
  List.iter
    (fun (k, v, w) ->
      let c = cell node k in
      c.value <- v;
      c.writer <- w)
    s.s_cells;
  Ac.load t node s.s_ac

(* Redo one durable record.  Replay never records history: installs of
   already-applied writes were recorded before the crash, and in-doubt
   transactions go through the normal decide path afterwards. *)
let replay_record t (node : node) = function
  | PPrepared { txn; prep } -> Hashtbl.replace node.ac.prepared txn prep
  | PAborted { txn } ->
      Hashtbl.remove node.ac.prepared txn;
      Ac.fence t node txn
  | PDecided { txn } -> Ac.restore t node txn ()
  | PApplied { txn } -> (
      match Hashtbl.find_opt node.ac.prepared txn with
      | None -> ()
      | Some prep ->
          Hashtbl.remove node.ac.prepared txn;
          List.iter
            (fun (k, v) ->
              let c = cell node k in
              c.value <- v;
              c.writer <- txn)
            prep.ws_local)

(* Wake commit fibers parked on apply acks; they observe the record swap
   and raise. *)
let wound t (old : node) e =
  Rpc.Pending.poison_all t.sim old.pending_reads e;
  Ac.wound t old e;
  fill_acks t old.ack_boxes

let recover t node = Ac.recover t node ~watch

let hooks =
  { handler = dispatch; wound; snapshot = snap_of; load = load_snap; replay = replay_record;
    recover }

let create sim config = Rt.create ~hooks ~ext:() sim config

let begin_txn cl ~node ~read_only = start cl ~node ~read_only (fun _ _ -> ())

let remote_read h key =
  let value, writer =
    fetch h h.home.pending_reads key (fun req -> Read_req { req; key })
  in
  observed h key writer;
  value

let read h key = Rt.read h key remote_read

let commit_validated h =
  let cl = h.cl in
  let keys = List.map fst h.rs @ List.map fst h.ws in
  let participants = List.sort_uniq Int.compare (h.home.id :: replica_nodes cl keys) in
  let round = Ac.open_round h.home h.txn ~expect:(List.length participants) () in
  List.iter
    (fun dst ->
      send cl ~src:h.home.id ~dst
        (Prepare { txn = h.txn; coord = h.home.id; rs = h.rs; ws = h.ws }))
    participants;
  match Ac.await_round cl h.home h.txn round with
  | Some reason ->
      (* A crashed home can still abort (nothing was promised), so the
         Decide(false) fan-out runs either way and frees the
         participants; only the commit path dies with the node. *)
      List.iter
        (fun dst -> send cl ~src:h.home.id ~dst (Decide { txn = h.txn; outcome = false }))
        participants;
      refuse h reason
  | None ->
      if not (node_live cl h.home) then crashed h.home.id;
      if cl.config.Sss_kv.Config.durability then
        Ac.decide cl h.home h.txn () (PDecided { txn = h.txn });
      let write_nodes = replica_nodes cl (List.map fst h.ws) in
      let acks =
        if write_nodes = [] then None
        else Some (open_acks h.home.ack_boxes h.txn ~expect:(List.length write_nodes))
      in
      List.iter
        (fun dst -> send cl ~src:h.home.id ~dst (Decide { txn = h.txn; outcome = true }))
        participants;
      (* The client is informed once every write replica applied: later
         transactions beginning after this response always see the data. *)
      Option.iter
        (fun acks ->
          await_acks cl acks ~phase:"apply ack" h.txn;
          Hashtbl.remove h.home.ack_boxes h.txn;
          if not (node_live cl h.home) then crashed h.home.id)
        acks;
      Ac.completed h.home h.txn;
      complete h ~ws:(List.map fst h.ws);
      true

let commit h =
  close h "commit";
  if h.rs = [] && h.ws = [] then commit_write_free h else commit_validated h

(* Resident words of every node's store, under the same heap model as
   [Sss_data.Mvstore.mem_words]: hash buckets + binding boxes, one cell
   record per key, and the boxed value strings (headers included).  Cold
   path (end-of-run gauge); the sum is bucket-order-insensitive. *)
let store_words t =
  sum_nodes t (fun (n : node) ->
      Mvstore.table_words n.store (fun (c : cell) -> 4 + Mvstore.str_words (String.length c.value)))

let quiescent t =
  residue_report t (fun (n : node) ->
      Ac.lingering n
      @ residue n "lock holders" (Locks.holder_count n.locks))
