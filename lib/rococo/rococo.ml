(* ROCOCO-style two-round concurrency control (Mu et al., OSDI'14),
   re-implemented on the same substrate as SSS, as the paper does for its
   evaluation (§V, Figures 6 and 8).

   The evaluation configures ROCOCO so that every piece is deferrable; we
   implement that mode:

   - Update transactions never abort.  Round 1 (dispatch) places one piece
     per accessed key on the key's server and collects ordering
     information (a per-server logical counter, standing in for ROCOCO's
     collected dependencies).  Round 2 (commit) distributes the
     transaction's final position — the maximum collected counter, with
     the transaction id as tie-break — and every server executes the
     buffered pieces of a key in final-position order, holding back a
     piece while a dispatched-but-not-yet-positioned transaction could
     still be ordered earlier.  This reorder-instead-of-abort execution is
     the essence of ROCOCO's deferrable pieces.
   - A piece is a server-side read-modify-write: the client-visible read
     returns the dispatch-time value, while the authoritative read happens
     at execution time in the agreed order (recorded in the history, which
     is what the consistency checker validates).
   - Read-only transactions are not abort-free (the property the paper
     contrasts with SSS): each read waits until the key has no buffered
     update pieces, and the transaction re-reads its whole key set until
     two consecutive rounds observe identical versions, aborting after a
     bounded number of attempts.  Their cost grows with the number of read
     keys and with contention — the effect Figure 8 measures.

   Under durability the runtime's completion wait re-sends the Commit to
   the replicas whose acks are missing; a replica positions a transaction
   once ([seen]) and re-acks only after its last local piece ran.

   Replication is disabled in the paper's ROCOCO comparisons (consensus
   replication is out of scope); we honour [replication_degree] but the
   experiments use 1. *)

open Sss_sim
open Sss_data
open Sss_net
open Sss_consistency

type ts = { num : int; owner : Ids.txn }

let ts_compare a b =
  let c = Int.compare a.num b.num in
  if c <> 0 then c else Ids.compare_txn a.owner b.owner

type msg =
  | Dispatch of { req : int; txn : Ids.txn; key : Ids.key }
  | Dispatch_ack of { req : int; counter : int; value : string; writer : Ids.txn }
  | Commit of { txn : Ids.txn; ts : ts; writes : (Ids.key * string) list }
  | Commit_ack of { txn : Ids.txn }
  | Ro_read of { req : int; key : Ids.key }
  | Ro_ret of { req : int; value : string; writer : Ids.txn; stable : bool }
  | Cancel of { txn : Ids.txn; keys : Ids.key list }
  | Alive_query of { req : int; txn : Ids.txn }
      (* durability: "is this dispatched transaction still being driven?" *)
  | Alive_ret of { req : int; alive : bool }
  | Tracked of { token : int; inner : msg }
  | Delivered of { token : int }

let rec priority = function
  | Commit _ | Commit_ack _ | Cancel _ | Alive_query _ | Alive_ret _ -> 60
  | Dispatch _ | Dispatch_ack _ | Ro_read _ | Ro_ret _ -> 100
  | Tracked { inner; _ } -> priority inner
  | Delivered _ -> 10

let rec message_kind = function
  | Dispatch _ -> "dispatch"
  | Dispatch_ack _ -> "dispatch_ack"
  | Commit _ -> "commit"
  | Commit_ack _ -> "commit_ack"
  | Ro_read _ -> "ro_read"
  | Ro_ret _ -> "ro_return"
  | Cancel _ -> "cancel"
  | Alive_query _ -> "alive_query"
  | Alive_ret _ -> "alive_return"
  | Tracked { inner; _ } -> message_kind inner
  | Delivered _ -> "delivered"

(* A node's store: each key's value and writer, and the pieces buffered
   on it, in columns by key handle.  An idle unwritten key holds its
   column words only; it reads its boot value from [Ids.genesis]. *)
type store = {
  cells : Cells.t;
  (* dispatched pieces not yet positioned, with their local dispatch
     counters; sorted by txn, the order [Runtime.sorted_bindings] gives *)
  pending : (Ids.txn * int) list array;
  (* positioned pieces awaiting execution, sorted by ts *)
  ready : (ts * string) list array;
}

(* Durability-mode write-ahead-log records (docs/DURABILITY.md). *)
type logrec =
  | RDispatch of { txn : Ids.txn; key : Ids.key; counter : int }
      (* a piece was buffered and its ordering counter promised *)
  | RInsert of { txn : Ids.txn; ts : ts; writes : (Ids.key * string) list }
      (* a positioned transaction: final timestamp and full write set *)

(* Checkpoint image: deep copy, deterministic (sorted) order. *)
type snap = {
  s_store : store;
  s_counter : int;
  s_staged : (Ids.txn * (ts * (Ids.key * string) list)) list;
  s_seen : Idset.Txns.t;
}

type node = {
  id : Ids.node;
  mutable store : store;
  mutable counter : int;
  pending_disp : (int * string * Ids.txn) Rpc.Pending.t;
  pending_ro : (string * Ids.txn * bool) Rpc.Pending.t;
  ack_boxes : (Ids.txn, Sss_kv.Runtime.acks) Hashtbl.t;  (* one ack per piece *)
  executed : Sim.Cond.t;
  (* durability mode only *)
  staged : (Ids.txn, ts * (Ids.key * string) list) Hashtbl.t;
      (* positioned transactions whose RInsert flush is still in flight *)
  mutable seen : Idset.Txns.t;
      (* positioned transactions: a re-sent Commit is never staged twice.
         A coordinator stops re-sending [ack_timeout] after its dispatch
         round, so no copy arrives past the 2 x [ack_timeout] horizon (a
         retired id reads as seen) *)
  inflight : (Ids.txn, unit) Hashtbl.t;
      (* home-side registry of update transactions still being driven by a
         live client fiber; lost in a crash — which is exactly the signal
         the aliveness protocol needs *)
  pending_alive : bool Rpc.Pending.t;
}

let make_node _sim _config repl id =
  let keys = Replication.keys_at repl id in
  {
    id;
    store =
      { cells = Cells.create keys; pending = Array.make (Array.length keys) [];
        ready = Array.make (Array.length keys) [] };
    counter = 0;
    pending_disp = Rpc.Pending.create ();
    pending_ro = Rpc.Pending.create ();
    ack_boxes = Hashtbl.create 16;
    executed = Sim.Cond.create ();
    staged = Hashtbl.create 16;
    seen = Idset.Txns.create ~horizon:(2. *. Sss_kv.Config.ack_timeout);
    inflight = Hashtbl.create 16;
    pending_alive = Rpc.Pending.create ();
  }

let set_pending st h txn d =
  let rec add = function
    | ((o, _) as b) :: rest when Ids.compare_txn o txn < 0 -> b :: add rest
    | (o, _) :: rest when Ids.equal_txn o txn -> (txn, d) :: rest
    | l -> (txn, d) :: l
  in
  st.pending.(h) <- add st.pending.(h)

let drop_pending st h txn =
  st.pending.(h) <- List.filter (fun (o, _) -> not (Ids.equal_txn o txn)) st.pending.(h)

let copy s = { cells = Cells.copy s.cells; pending = Array.copy s.pending; ready = Array.copy s.ready }

(* No buffered piece on handle [h]. *)
let idle st h = st.pending.(h) = [] && st.ready.(h) = []

(* ---------- durability (Config.durability; docs/DURABILITY.md) ---------- *)

(* byte-size model for log records, same flavour as Message.wire_size *)
let writes_bytes ws = List.fold_left (fun acc (_, v) -> acc + 12 + String.length v) 0 ws

let logrec_bytes = function
  | RDispatch _ -> 16 + 8 + 8 + 8
  | RInsert { writes; _ } -> 16 + 8 + 16 + writes_bytes writes

(* The written or occupied keys are priced, in ascending key order. *)
let snap_bytes (s : snap) =
  let st = s.s_store in
  let key acc h =
    if idle st h && Cells.writer_is st.cells h Ids.genesis then acc
    else
      acc + 20 + String.length (Cells.peek st.cells h)
      + (16 * List.length st.pending.(h))
      + List.fold_left (fun a (_, w) -> a + 20 + String.length w) 0 st.ready.(h)
  in
  64
  + Seq.fold_left key 0 (Seq.init (Array.length st.pending) Fun.id)
  + List.fold_left (fun acc (_, (_, ws)) -> acc + 24 + writes_bytes ws) 0 s.s_staged
  + (16 * Idset.Txns.cardinal s.s_seen)

let snap_of (node : node) =
  {
    s_store = copy node.store;
    s_counter = node.counter;
    s_staged = Sss_kv.Runtime.sorted_bindings node.staged;
    s_seen = Idset.Txns.copy node.seen;
  }

module Rt = Sss_kv.Runtime.Make (struct
  type nonrec msg = msg
  type nonrec node = node
  type nonrec logrec = logrec
  type nonrec snap = snap
  type ext = unit

  let system = "rococo"
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

type cluster = Rt.t

(* ROCOCO's own per-transaction state. *)
type own = {
  mutable reads : (Ids.key * string) list;  (* dispatch-time reads, client-visible *)
  mutable counters : int list;  (* collected in round 1 *)
}

type handle = own Rt.handle

(* Request/response reads (dispatch round-1, read-only rounds).  Without
   durability a single long-timeout wait is enough — the reply can only be
   slow, not gone.  A crash can eat the request or the reply outright (the
   transport receipts on receive, before the handler runs), and the lost
   [Dispatch_ack] is worse than latency: the crashed server's redo restores
   the piece's counter promise into [pending], where it gates every later
   position on the key until the client acts.  So under durability the
   client re-issues the request on a short slice; dispatch re-issue simply
   replaces this transaction's pending counter, and read-only reads are
   idempotent. *)
let read_rpc h (pending : 'a Rpc.Pending.t) key msg ~phase =
  let cl = h.cl and home = h.home in
  if not cl.config.Sss_kv.Config.durability then fetch ~phase h pending key msg
  else
    let dsts = Replication.replicas cl.repl key in
    let rec attempt n =
      if n > cl.config.Sss_kv.Config.retry_limit then
        stalled ~phase ~bound:"retry_limit attempts"
          (Printf.sprintf "key %d in %s" key (Ids.txn_to_string h.txn));
      if not (node_live cl home) then crashed home.id;
      let req, ivar = Rpc.Pending.fresh pending in
      send_nodes cl ~src:home.id ~dsts (msg req);
      match Rpc.Pending.await_timeout cl.sim ivar ~timeout:(2. *. Sss_kv.Config.retry_max) with
      | Some r -> r
      | None ->
          Rpc.Pending.forget pending req;
          attempt (n + 1)
    in
    attempt 0

(* Execute every ready piece that can no longer be preceded: the smallest
   positioned ts on the key runs once every still-unpositioned piece is
   guaranteed a larger position (its dispatch counter already exceeds the
   candidate's position number). *)
let rec drain t (node : node) h =
  let st = node.store and key = node.store.cells.keys.(h) in
  match st.ready.(h) with
  | [] -> ()
  | (ts, value) :: rest ->
      let could_precede =
        (* disjunction: order-insensitive *)
        List.exists (fun (_, d) -> d <= ts.num) st.pending.(h)
      in
      if not could_precede then begin
        (* authoritative read-modify-write, in the agreed order *)
        if List.hd (Replication.replicas t.repl key) = node.id then begin
          record t (History.Read { txn = ts.owner; key; writer = Cells.writer st.cells h });
          record t (History.Install { txn = ts.owner; key })
        end;
        Cells.set st.cells h ~value ~writer:ts.owner;
        st.ready.(h) <- rest;
        Sim.Cond.broadcast t.sim node.executed;
        send t ~src:node.id ~dst:ts.owner.Ids.node (Commit_ack { txn = ts.owner });
        drain t node h
      end

(* Withdraw [txn]'s unpositioned piece on [h], then run what it held back. *)
let withdraw t (node : node) h txn =
  drop_pending node.store h txn;
  drain t node h;
  Sim.Cond.broadcast t.sim node.executed

let insert_positioned t (node : node) ~txn ~ts ~writes =
  (* Lamport rule: never hand out a dispatch counter at or below a position
     that may already have executed here, or a later transaction could be
     ordered before an already-executed piece. *)
  node.counter <- Stdlib.max node.counter ts.num;
  List.iter
    (fun (key, value) ->
      let st = node.store in
      let h = Replication.handle st.cells.keys key in
      if h >= 0 then begin
        drop_pending st h txn;
        let rec insert = function
          | [] -> [ (ts, value) ]
          | ((ts', _) as hd) :: rest ->
              if ts_compare ts ts' < 0 then (ts, value) :: hd :: rest else hd :: insert rest
        in
        st.ready.(h) <- insert st.ready.(h);
        drain t node h
      end)
    writes

(* Every local piece of the seen [txn] has run: its flush is done and no
   key holds a ready piece of it. *)
let pieces_ran (node : node) txn writes =
  (not (Hashtbl.mem node.staged txn))
  && List.for_all
       (fun (key, _) ->
         let h = Replication.handle node.store.cells.keys key in
         h < 0 || not (List.exists (fun (ts, _) -> Ids.equal_txn ts.owner txn) node.store.ready.(h)))
       writes

let handle_commit t (node : node) ~txn ~ts ~writes =
  match t.wals.(node.id) with
  | None -> insert_positioned t node ~txn ~ts ~writes
  | Some _ when Idset.Txns.mem node.seen txn ->
      (* a coordinator re-send: the position is already durable (or in
         flight), so it is never staged again.  Once the last local piece
         ran, re-ack one per local written key; an ack sent before could
         settle the box while a piece is still to run *)
      if pieces_ran node txn writes then
        List.iter
          (fun (key, _) ->
            if Replication.is_replica t.repl node.id key then
              send t ~src:node.id ~dst:txn.Ids.node (Commit_ack { txn }))
          writes
  | Some _ ->
      Idset.Txns.add node.seen txn ~now:(Sim.now t.sim);
      node.counter <- Stdlib.max node.counter ts.num;
      (* stage + append in one event: a fuzzy checkpoint sees the position
         either in [staged] or (after the flush) in the cells *)
      Hashtbl.replace node.staged txn (ts, writes);
      let flush_began = Sim.now t.sim in
      let lsn = log t node (RInsert { txn; ts; writes }) in
      if log_sync t node lsn && node_live t node then begin
        observe_since t "lat.commit.durable" ~since:flush_began;
        Hashtbl.remove node.staged txn;
        insert_positioned t node ~txn ~ts ~writes
      end

(* Durability only: a dispatched-but-unpositioned piece gates every later
   piece on its key ([could_precede]).  If the driving client is gone — its
   home crashed, or it abandoned the attempt — nothing will ever position
   or cancel the piece, so each one gets a watchdog that periodically asks
   the owner's home whether the transaction is still in flight and
   withdraws the piece once it is not.  A live answer resets the retry
   budget; only sustained silence stalls. *)
let spawn_alive_watchdog t (node : node) ~txn h =
  let still_pending () =
    node_live t node && List.exists (fun (o, _) -> Ids.equal_txn o txn) node.store.pending.(h)
  in
  Sim.spawn t.sim (fun () ->
      let rec loop attempt =
        Sim.sleep t.sim (2. *. Sss_kv.Config.retry_max);
        if still_pending () then
          if attempt >= t.config.Sss_kv.Config.retry_limit then
            stalled ~phase:"alive query" ~bound:"retry_limit attempts" (Ids.txn_to_string txn)
          else begin
            let req, slot = Rpc.Pending.fresh node.pending_alive in
            send t ~src:node.id ~dst:txn.Ids.node (Alive_query { req; txn });
            match Rpc.Pending.await_timeout t.sim slot ~timeout:Sss_kv.Config.retry_max with
            | Some false when still_pending () ->
                (* orphaned: withdraw the piece so it stops gating drains *)
                withdraw t node h txn
            | Some false -> ()
            | Some true -> loop 0
            | None ->
                Rpc.Pending.forget node.pending_alive req;
                loop (attempt + 1)
          end
      in
      try loop 0 with Rpc.Crashed _ -> ())

let rec dispatch t (node : node) ~src payload =
  match payload with
  | Tracked { token; inner } -> if receive t ~me:node.id ~src token then dispatch t node ~src inner
  | Delivered { token } -> Reliable.delivered t.rel token
  | Dispatch { req; txn; key } ->
      let h = key_handle t node.id key and cells = node.store.cells in
      node.counter <- node.counter + 1;
      set_pending node.store h txn node.counter;
      let value = Cells.peek cells h and writer = Cells.writer cells h in
      if not t.config.Sss_kv.Config.durability then
        send t ~src:node.id ~dst:src (Dispatch_ack { req; counter = node.counter; value; writer })
      else begin
        (* the counter promise must survive a crash before the client may
           build a position on it: recovery rebuilds [pending] from these
           records, and [could_precede] gating is unsound without them *)
        let counter = node.counter in
        let lsn = log t node (RDispatch { txn; key; counter }) in
        spawn_alive_watchdog t node ~txn h;
        if log_sync t node lsn && node_live t node then
          send t ~src:node.id ~dst:src (Dispatch_ack { req; counter; value; writer })
      end
  | Dispatch_ack { req; counter; value; writer } ->
      Rpc.Pending.resolve t.sim node.pending_disp req (counter, value, writer)
  | Commit { txn; ts; writes } -> handle_commit t node ~txn ~ts ~writes
  | Commit_ack { txn } -> ack_arrived t node.ack_boxes txn ~src ~round:0
  | Ro_read { req; key } ->
      let h = key_handle t node.id key in
      (* wait until no buffered update piece conflicts with the read *)
      let _ =
        Sim.Cond.await_timeout t.sim node.executed ~timeout:0.005 (fun () -> idle node.store h)
      in
      let st = node.store in
      send t ~src:node.id ~dst:src
        (Ro_ret
           { req; value = Cells.peek st.cells h; writer = Cells.writer st.cells h;
             stable = idle st h })
  | Ro_ret { req; value; writer; stable } ->
      Rpc.Pending.resolve t.sim node.pending_ro req (value, writer, stable)
  | Cancel { txn; keys } ->
      List.iter
        (fun key ->
          let h = Replication.handle node.store.cells.keys key in
          if h >= 0 then withdraw t node h txn)
        keys
  | Alive_query { req; txn } ->
      send t ~src:node.id ~dst:src (Alive_ret { req; alive = Hashtbl.mem node.inflight txn })
  | Alive_ret { req; alive } -> Rpc.Pending.resolve t.sim node.pending_alive req alive

(* ------------- crash / recovery (durability mode) ------------- *)

let load_snap _t (node : node) (s : snap) =
  node.store <- copy s.s_store;
  node.counter <- s.s_counter;
  List.iter (fun (txn, sw) -> Hashtbl.replace node.staged txn sw) s.s_staged;
  node.seen <- Idset.Txns.copy s.s_seen

(* Redo one durable record into the volatile tables; positioned
   transactions land in [staged] and re-execute after replay, which never
   records history (first execution already did). *)
let replay_record t (node : node) = function
  | RDispatch { txn; key; counter } ->
      node.counter <- Stdlib.max node.counter counter;
      set_pending node.store (key_handle t node.id key) txn counter
  | RInsert { txn; ts; writes } ->
      Idset.Txns.add node.seen txn ~now:(Sim.now t.sim);
      node.counter <- Stdlib.max node.counter ts.num;
      Hashtbl.replace node.staged txn (ts, writes)

(* Wake commit fibers parked on acks; they observe the record swap and
   raise. *)
let wound t (old : node) e =
  Rpc.Pending.poison_all t.sim old.pending_disp e;
  Rpc.Pending.poison_all t.sim old.pending_ro e;
  Rpc.Pending.poison_all t.sim old.pending_alive e;
  fill_acks t old.ack_boxes

let recover t (node : node) =
  let st = node.store in
  rejoin t node.id ~rejoined:(fun () ->
      (* re-execute positioned transactions whose insert was cut short, in
         final-position order; their first durable record fixes the order,
         so this reconstructs the same state *)
      List.iter
        (fun (txn, (ts, writes)) ->
          Hashtbl.remove node.staged txn;
          insert_positioned t node ~txn ~ts ~writes)
        (List.sort
           (fun (_, (a, _)) (_, (b, _)) -> ts_compare a b)
           (Sss_kv.Runtime.sorted_bindings node.staged));
      (* gates may have vanished with the crash (their Cancel was volatile);
         drains + watchdogs settle every restored key *)
      Array.iteri (fun h _ -> drain t node h) st.pending);
  Array.iteri (fun h -> List.iter (fun (txn, _) -> spawn_alive_watchdog t node ~txn h)) st.pending

let hooks =
  { handler = dispatch; wound; snapshot = snap_of; load = load_snap; replay = replay_record;
    recover }

let create sim config = Rt.create ~hooks ~ext:() sim config

let begin_txn cl ~node ~read_only =
  start cl ~node ~read_only (fun home txn ->
      if cl.config.Sss_kv.Config.durability && not read_only then
        (* the aliveness protocol answers for this transaction from here until
           commit/abort deregisters it (or a crash wipes the table) *)
        Hashtbl.replace home.inflight txn ();
      { reads = []; counters = [] })

(* Update-transaction read = round-1 dispatch of the piece; read-only reads
   are handled in [commit] (the round-based protocol needs the full key
   set). *)
let remote_read h key =
  let o = h.own in
  if h.ro then
    match List.assoc_opt key o.reads with
    | Some v -> v
    | None ->
        let value, _writer, _stable =
          read_rpc h h.home.pending_ro key (fun req -> Ro_read { req; key }) ~phase:"ro read"
        in
        o.reads <- (key, value) :: o.reads;
        value
  else
    let counter, value, _writer =
      read_rpc h h.home.pending_disp key
        (fun req -> Dispatch { req; txn = h.txn; key })
        ~phase:"dispatch"
    in
    o.counters <- counter :: o.counters;
    o.reads <- (key, value) :: o.reads;
    value

let read h key = Rt.read h key remote_read

let commit_update h =
  let cl = h.cl and o = h.own in
  (* every dispatched key must be written back (deferrable RMW pieces); a
     read without a write is treated as an RMW that rewrites the read
     value *)
  List.iter
    (fun (k, v) -> if not (List.mem_assoc k h.ws) then h.ws <- (k, v) :: h.ws)
    o.reads;
  let ts = { num = List.fold_left Stdlib.max 0 o.counters; owner = h.txn } in
  let servers = replica_nodes cl (List.map fst h.ws) in
  (* one ack per executed piece per replica *)
  let from = List.concat_map (fun (k, _) -> Replication.replicas cl.repl k) h.ws in
  let box = open_acks cl h.home.ack_boxes h.txn ~from ~round:0 in
  let msg = Commit { txn = h.txn; ts; writes = h.ws } in
  send_nodes cl ~src:h.home.id ~dsts:servers msg;
  await_completion cl h.home box ~msg ~phase:"commit ack" h.txn;
  Hashtbl.remove h.home.ack_boxes h.txn;
  Hashtbl.remove h.home.inflight h.txn;
  complete h ~ws:(List.map fst h.ws);
  true

(* Round-based read-only: re-read the key set until two consecutive rounds
   observe the same versions; abort after a bounded number of attempts. *)
let commit_read_only h =
  let cl = h.cl in
  let keys = List.rev_map fst h.own.reads in
  let read_round () =
    List.map
      (fun key ->
        let value, writer, stable =
          read_rpc h h.home.pending_ro key (fun req -> Ro_read { req; key }) ~phase:"ro round"
        in
        (key, value, writer, stable))
      keys
  in
  let rec attempt n prev =
    if n = 0 then None
    else
      let round = read_round () in
      (* Accept only when both rounds saw every key quiescent (no buffered
         pieces anywhere in between) and the same versions: a writer whose
         per-key executions straddle the rounds is in flight on some key
         during both, so it cannot slip through unnoticed. *)
      let same =
        List.for_all2
          (fun (_, _, w1, s1) (_, _, w2, s2) -> s1 && s2 && Ids.equal_txn w1 w2)
          prev round
      in
      if same then Some round else attempt (n - 1) round
  in
  let first = read_round () in
  match attempt 8 first with
  | Some round ->
      List.iter
        (fun (key, _, writer, _) -> record cl (History.Read { txn = h.txn; key; writer }))
        round;
      complete h ~ws:[];
      true
  | None -> refuse h Ro_rounds

let commit h =
  close h "commit";
  if h.ws = [] && h.own.reads = [] then begin
    (* nothing dispatched: deregister and commit with no messages *)
    Hashtbl.remove h.home.inflight h.txn;
    commit_write_free h
  end
  else if h.ro then commit_read_only h
  else commit_update h

let abort h =
  client_abort h (fun () ->
      (* deregister first: even if the Cancel below is lost to a crash, the
         aliveness watchdogs now see a dead transaction and withdraw its
         pieces *)
      Hashtbl.remove h.home.inflight h.txn;
      (* withdraw any dispatched pieces so they never gate other transactions *)
      let keys = List.map fst h.own.reads in
      if (not h.ro) && keys <> [] then
        send_nodes h.cl ~src:h.home.id ~dsts:(replica_nodes h.cl keys)
          (Cancel { txn = h.txn; keys }))

(* Resident words of every node's store under [Mvstore.mem_words]'s
   model: the cells, the record and the two piece columns, and per
   buffered piece a cons, a pair and the piece (a ts record and a value). *)
let store_words t =
  sum_nodes t (fun (n : node) ->
      let st = n.store and piece a (_, v) = a + 9 + Mvstore.str_words (String.length v) in
      Array.fold_left (List.fold_left piece) (Cells.words st.cells + 6 + (2 * Array.length st.ready)) st.ready
      + Array.fold_left (fun a p -> a + (6 * List.length p)) 0 st.pending)

let store_repr t node = Obj.repr t.nodes.(node).store

let latest t ~node key =
  let cells = t.nodes.(node).store.cells and h = key_handle t node key in
  (Cells.peek cells h, Cells.writer cells h)

let quiescent t =
  residue_report t (fun (n : node) ->
      let st = n.store in
      List.filter_map
        (fun h ->
          if idle st h then None
          else
            Some
              (Printf.sprintf "node %d: key %d has %d pending / %d ready pieces" n.id
                 st.cells.keys.(h) (List.length st.pending.(h)) (List.length st.ready.(h))))
        (List.init (Array.length st.pending) Fun.id))
