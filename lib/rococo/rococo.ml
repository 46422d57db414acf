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
  | Commit of { txn : Ids.txn; ts : ts; writes : (Ids.key * string) list; round : int }
      (* [round] > 0 only for durability-mode coordinator retries *)
  | Commit_ack of { txn : Ids.txn; round : int }
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

type cell = {
  mutable value : string;
  mutable writer : Ids.txn;
  (* dispatched pieces not yet positioned: txn -> local dispatch counter *)
  pending : (Ids.txn, int) Hashtbl.t;
  (* positioned pieces awaiting execution, sorted by ts *)
  mutable ready : (ts * string) list;
}

(* Durability-mode write-ahead-log records (docs/DURABILITY.md). *)
type logrec =
  | RDispatch of { txn : Ids.txn; key : Ids.key; counter : int }
      (* a piece was buffered and its ordering counter promised *)
  | RInsert of { txn : Ids.txn; ts : ts; writes : (Ids.key * string) list }
      (* a positioned transaction: final timestamp and full write set *)

(* Checkpoint image: deep copy, deterministic (sorted) order. *)
type snap = {
  s_cells :
    (Ids.key * (string * Ids.txn * (Ids.txn * int) list * (ts * string) list)) list;
  s_counter : int;
  s_staged : (Ids.txn * (ts * (Ids.key * string) list)) list;
  s_done : (Ids.txn * int) list;
  s_seen : Ids.txn list;
}

type node = {
  id : Ids.node;
  store : (Ids.key, cell) Hashtbl.t;
  mutable counter : int;
  pending_disp : (int * string * Ids.txn) Rpc.Pending.t;
  pending_ro : (string * Ids.txn * bool) Rpc.Pending.t;
  ack_boxes : (Ids.txn, Sss_kv.Runtime.acks) Hashtbl.t;
      (* durability retries in rounds: acks of older rounds are stale *)
  executed : Sim.Cond.t;
  (* durability mode only *)
  staged : (Ids.txn, ts * (Ids.key * string) list) Hashtbl.t;
      (* positioned transactions whose RInsert flush is still in flight *)
  seen_commits : (Ids.txn, unit) Hashtbl.t;  (* dedup for coordinator retries *)
  done_pieces : (Ids.txn, int) Hashtbl.t;  (* locally executed pieces per txn *)
  rounds : (Ids.txn, int) Hashtbl.t;  (* latest Commit retry round seen *)
  inflight : (Ids.txn, unit) Hashtbl.t;
      (* home-side registry of update transactions still being driven by a
         live client fiber; lost in a crash — which is exactly the signal
         the aliveness protocol needs *)
  pending_alive : bool Rpc.Pending.t;
}

let make_node _sim _config repl id =
  let store = Hashtbl.create 256 in
  Array.iter
    (fun k ->
      Hashtbl.replace store k
        {
          value = Ids.boot_value k;
          writer = Ids.genesis;
          pending = Hashtbl.create 8;
          ready = [];
        })
    (Replication.keys_at repl id);
  {
    id;
    store;
    counter = 0;
    pending_disp = Rpc.Pending.create ();
    pending_ro = Rpc.Pending.create ();
    ack_boxes = Hashtbl.create 64;
    executed = Sim.Cond.create ();
    staged = Hashtbl.create 16;
    seen_commits = Hashtbl.create 64;
    done_pieces = Hashtbl.create 64;
    rounds = Hashtbl.create 16;
    inflight = Hashtbl.create 16;
    pending_alive = Rpc.Pending.create ();
  }

let cell (node : node) key =
  match Hashtbl.find_opt node.store key with
  | Some c -> c
  | None -> invalid_arg "Rococo: unknown key"

(* ---------- durability (Config.durability; docs/DURABILITY.md) ---------- *)

(* byte-size model for log records, same flavour as Message.wire_size *)
let writes_bytes ws = List.fold_left (fun acc (_, v) -> acc + 12 + String.length v) 0 ws

let logrec_bytes = function
  | RDispatch _ -> 16 + 8 + 8 + 8
  | RInsert { writes; _ } -> 16 + 8 + 16 + writes_bytes writes

let snap_bytes (s : snap) =
  64
  + List.fold_left
      (fun acc (_, (v, _, pending, ready)) ->
        acc + 20 + String.length v
        + (16 * List.length pending)
        + List.fold_left (fun a (_, w) -> a + 20 + String.length w) 0 ready)
      0 s.s_cells
  + List.fold_left (fun acc (_, (_, ws)) -> acc + 24 + writes_bytes ws) 0 s.s_staged
  + (16 * List.length s.s_done)
  + (8 * List.length s.s_seen)

let snap_of (node : node) =
  {
    s_cells =
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Hashtbl.fold
           (fun k (c : cell) acc ->
             (k, (c.value, c.writer, Sss_kv.Runtime.sorted_bindings c.pending, c.ready)) :: acc)
           node.store [] [@order_ok]);
    s_counter = node.counter;
    s_staged = Sss_kv.Runtime.sorted_bindings node.staged;
    s_done = Sss_kv.Runtime.sorted_bindings node.done_pieces;
    s_seen = List.map fst (Sss_kv.Runtime.sorted_bindings node.seen_commits);
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
        stalled ~phase (Printf.sprintf "key %d in %s" key (Ids.txn_to_string h.txn));
      if not (node_live cl home) then crashed home.id;
      let req, ivar = Rpc.Pending.fresh pending in
      List.iter (fun dst -> send cl ~src:home.id ~dst (msg req)) dsts;
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
let rec drain t (node : node) key =
  let c = cell node key in
  match c.ready with
  | [] -> ()
  | (ts, value) :: rest ->
      let could_precede =
        (* disjunction: order-insensitive *)
        (Hashtbl.fold (fun _ d acc -> acc || d <= ts.num) c.pending false
        [@order_ok])
      in
      if not could_precede then begin
        (* authoritative read-modify-write, in the agreed order *)
        if List.hd (Replication.replicas t.repl key) = node.id then begin
          record t (History.Read { txn = ts.owner; key; writer = c.writer });
          record t (History.Install { txn = ts.owner; key })
        end;
        c.value <- value;
        c.writer <- ts.owner;
        c.ready <- rest;
        Sim.Cond.broadcast t.sim node.executed;
        Hashtbl.replace node.done_pieces ts.owner
          (1 + Option.value ~default:0 (Hashtbl.find_opt node.done_pieces ts.owner));
        let round = Option.value ~default:0 (Hashtbl.find_opt node.rounds ts.owner) in
        send t ~src:node.id ~dst:ts.owner.Ids.node (Commit_ack { txn = ts.owner; round });
        drain t node key
      end

let insert_positioned t (node : node) ~txn ~ts ~writes =
  (* Lamport rule: never hand out a dispatch counter at or below a position
     that may already have executed here, or a later transaction could be
     ordered before an already-executed piece. *)
  node.counter <- Stdlib.max node.counter ts.num;
  List.iter
    (fun (key, value) ->
      if Replication.is_replica t.repl node.id key then begin
        let c = cell node key in
        Hashtbl.remove c.pending txn;
        let rec insert = function
          | [] -> [ (ts, value) ]
          | ((ts', _) as hd) :: rest ->
              if ts_compare ts ts' < 0 then (ts, value) :: hd :: rest else hd :: insert rest
        in
        c.ready <- insert c.ready;
        drain t node key
      end)
    writes

let handle_commit t (node : node) ~txn ~ts ~writes ~round =
  match t.wals.(node.id) with
  | None -> insert_positioned t node ~txn ~ts ~writes
  | Some _ when Hashtbl.mem node.seen_commits txn ->
      (* coordinator retry: the position is already durable (or in flight);
         never re-stage — re-acknowledge what has executed so far at the
         newest round so the retry can complete *)
      let prev = Option.value ~default:0 (Hashtbl.find_opt node.rounds txn) in
      let round = Stdlib.max round prev in
      Hashtbl.replace node.rounds txn round;
      let done_ = Option.value ~default:0 (Hashtbl.find_opt node.done_pieces txn) in
      for _ = 1 to done_ do
        send t ~src:node.id ~dst:txn.Ids.node (Commit_ack { txn; round })
      done
  | Some _ ->
      Hashtbl.replace node.rounds txn round;
      Hashtbl.replace node.seen_commits txn ();
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
let spawn_alive_watchdog t (node : node) ~txn ~key =
  let still_pending () =
    node_live t node
    &&
    match Hashtbl.find_opt node.store key with
    | Some c -> Hashtbl.mem c.pending txn
    | None -> false
  in
  Sim.spawn t.sim (fun () ->
      let rec loop attempt =
        Sim.sleep t.sim (2. *. Sss_kv.Config.retry_max);
        if still_pending () then
          if attempt >= t.config.Sss_kv.Config.retry_limit then
            stalled ~phase:"alive query" (Ids.txn_to_string txn)
          else begin
            let req, slot = Rpc.Pending.fresh node.pending_alive in
            send t ~src:node.id ~dst:txn.Ids.node (Alive_query { req; txn });
            match Rpc.Pending.await_timeout t.sim slot ~timeout:Sss_kv.Config.retry_max with
            | Some false when still_pending () ->
                (* orphaned: withdraw the piece so it stops gating drains *)
                let c = cell node key in
                Hashtbl.remove c.pending txn;
                drain t node key;
                Sim.Cond.broadcast t.sim node.executed
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
      let c = cell node key in
      node.counter <- node.counter + 1;
      Hashtbl.replace c.pending txn node.counter;
      if not t.config.Sss_kv.Config.durability then
        send t ~src:node.id ~dst:src
          (Dispatch_ack { req; counter = node.counter; value = c.value; writer = c.writer })
      else begin
        (* the counter promise must survive a crash before the client may
           build a position on it: recovery rebuilds [pending] from these
           records, and [could_precede] gating is unsound without them *)
        let counter = node.counter and value = c.value and writer = c.writer in
        let lsn = log t node (RDispatch { txn; key; counter }) in
        spawn_alive_watchdog t node ~txn ~key;
        if log_sync t node lsn && node_live t node then
          send t ~src:node.id ~dst:src (Dispatch_ack { req; counter; value; writer })
      end
  | Dispatch_ack { req; counter; value; writer } ->
      Rpc.Pending.resolve t.sim node.pending_disp req (counter, value, writer)
  | Commit { txn; ts; writes; round } -> handle_commit t node ~txn ~ts ~writes ~round
  | Commit_ack { txn; round } -> ack_arrived t node.ack_boxes txn ~round
  | Ro_read { req; key } ->
      (* wait until no buffered update piece conflicts with the read *)
      let c = cell node key in
      let _ =
        Sim.Cond.await_timeout t.sim node.executed ~timeout:0.005 (fun () ->
            Hashtbl.length c.pending = 0 && c.ready = [])
      in
      let stable = Hashtbl.length c.pending = 0 && c.ready = [] in
      send t ~src:node.id ~dst:src (Ro_ret { req; value = c.value; writer = c.writer; stable })
  | Ro_ret { req; value; writer; stable } ->
      Rpc.Pending.resolve t.sim node.pending_ro req (value, writer, stable)
  | Cancel { txn; keys } ->
      List.iter
        (fun key ->
          if Replication.is_replica t.repl node.id key then begin
            let c = cell node key in
            Hashtbl.remove c.pending txn;
            drain t node key;
            Sim.Cond.broadcast t.sim node.executed
          end)
        keys
  | Alive_query { req; txn } ->
      send t ~src:node.id ~dst:src (Alive_ret { req; alive = Hashtbl.mem node.inflight txn })
  | Alive_ret { req; alive } -> Rpc.Pending.resolve t.sim node.pending_alive req alive

(* ------------- crash / recovery (durability mode) ------------- *)

let load_snap (node : node) (s : snap) =
  List.iter
    (fun (k, (value, writer, pending, ready)) ->
      let c = cell node k in
      c.value <- value;
      c.writer <- writer;
      List.iter (fun (txn, d) -> Hashtbl.replace c.pending txn d) pending;
      c.ready <- ready)
    s.s_cells;
  node.counter <- s.s_counter;
  List.iter (fun (txn, sw) -> Hashtbl.replace node.staged txn sw) s.s_staged;
  List.iter (fun (txn, n) -> Hashtbl.replace node.done_pieces txn n) s.s_done;
  List.iter (fun txn -> Hashtbl.replace node.seen_commits txn ()) s.s_seen

(* Redo one durable record into the volatile tables; positioned
   transactions land in [staged] and re-execute after replay, which never
   records history (first execution already did). *)
let replay_record (node : node) = function
  | RDispatch { txn; key; counter } -> (
      node.counter <- Stdlib.max node.counter counter;
      match Hashtbl.find_opt node.store key with
      | Some c -> Hashtbl.replace c.pending txn counter
      | None -> ())
  | RInsert { txn; ts; writes } ->
      Hashtbl.replace node.seen_commits txn ();
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
  let keys =
    List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) node.store [] [@order_ok])
  in
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
      List.iter (fun key -> drain t node key) keys);
  List.iter
    (fun key ->
      let c = cell node key in
      List.iter
        (fun (txn, _) -> spawn_alive_watchdog t node ~txn ~key)
        (Sss_kv.Runtime.sorted_bindings c.pending))
    keys

let hooks =
  { handler = dispatch; wound; snapshot = snap_of; load = (fun _ -> load_snap);
    replay = (fun _ -> replay_record); recover }

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
  let box =
    open_acks h.home.ack_boxes h.txn
      ~expect:
        (List.fold_left
           (fun acc (k, _) -> acc + List.length (Replication.replicas cl.repl k))
           0 h.ws)
  in
  let broadcast round =
    List.iter
      (fun dst ->
        send cl ~src:h.home.id ~dst (Commit { txn = h.txn; ts; writes = h.ws; round }))
      servers
  in
  if not cl.config.Sss_kv.Config.durability then begin
    broadcast 0;
    await_acks cl box ~phase:"commit ack" h.txn
  end
  else begin
    (* a server crash can eat Commit or its acks; retry in numbered rounds
       so re-acknowledgements of stale rounds are never double-counted *)
    let rec rounds round =
      if round > cl.config.Sss_kv.Config.retry_limit then
        stalled ~phase:"commit ack" (Ids.txn_to_string h.txn);
      if not (node_live cl h.home) then crashed h.home.id;
      box.ack_round <- round;
      box.arrived <- 0;
      broadcast round;
      if not (acks_within cl box ~timeout:(2. *. Sss_kv.Config.retry_max)) then
        rounds (round + 1)
    in
    rounds 0;
    if not (node_live cl h.home) then crashed h.home.id
  end;
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
        List.iter
          (fun dst -> send h.cl ~src:h.home.id ~dst (Cancel { txn = h.txn; keys }))
          (replica_nodes h.cl keys))

(* Resident words of every node's store, under the same heap model as
   [Sss_data.Mvstore.mem_words]: hash buckets + binding boxes, the cell
   record with its [pending] counter table and [ready] piece list, and the
   boxed value strings.  Cold path (end-of-run gauge); the sum is
   bucket-order-insensitive. *)
let store_words t =
  sum_nodes t (fun (n : node) ->
      Mvstore.table_words n.store (fun (c : cell) ->
          let a = 6 + Mvstore.str_words (String.length c.value) in
          let a = a + 16 + (6 * Hashtbl.length c.pending) in
          List.fold_left
            (fun a (_, piece) -> a + 3 + 3 + Mvstore.str_words (String.length piece))
            a c.ready))

let quiescent t =
  residue_report t (fun (n : node) ->
      (* in sorted key order: the text must not depend on bucket order *)
      List.filter_map
        (fun key ->
          let c = Hashtbl.find n.store key in
          if Hashtbl.length c.pending > 0 || c.ready <> [] then
            Some
              (Printf.sprintf "node %d: key %d has %d pending / %d ready pieces" n.id key
                 (Hashtbl.length c.pending) (List.length c.ready))
          else None)
        (List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) n.store [] [@order_ok])))
