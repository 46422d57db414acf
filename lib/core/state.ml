(** Runtime state of an SSS deployment: per-node protocol state on top of
    the shared cluster wiring of {!Runtime} (simulator, network, replica
    map, history).

    This module only holds data and small helpers; the protocol logic lives
    in {!Server} (participant side) and {!Client} (coordinator side). *)

open Sss_sim
open Sss_data
open Sss_net

(* Response to a read, delivered to the requesting coordinator. *)
type read_resp = {
  value : string;
  vc : Vclock.t;
  writer : Ids.txn;
  propagated : (Ids.txn * int) list;
  parked_coord : Ids.node option;
  from : Ids.node;
}

(* What a participant remembers between Prepare and Finalize: the only
   record of a writer here, which the commit queue and the parked index
   merely order by stamp.  The prepare log record and the checkpoint hold
   private copies ([copy_prep]) without the volatile [decided] and
   [released]. *)
type prep = {
  rs_local : (Ids.key * Ids.txn) list;
  ws_local : (Ids.key * string) list;
  prop_set : (Ids.txn * int) list;
  coord : Ids.node;
  prep_vc : Vclock.t;  (* the clock sent with the yes-vote *)
  mutable decided : Vclock.t option;  (* the Decide's clock, until applied *)
  mutable final_vc : Vclock.t option;  (* set when the writes are applied *)
  mutable parked_at : float;  (* when it parked: the apply, or the restart *)
  mutable released : Ids.key list;  (* paper mode: keys its pre-commit wait cleared *)
  mutable finalizing : bool;  (* the coordinator's Finalize has arrived *)
}

(* A transaction this node coordinates, from its begin until its commit or
   abort returns: open, with the readers whose Removes chased it here
   before it prepared (it must not propagate them); a read-only one
   reading from its first read, with the visibility bound that pins the GC
   watermark ([cluster_watermark]); then finishing, with the replies owed
   to Wait_finalized requests, sent when it ends. *)
type coordinated = Open of Ids.txn list | Reading of Vclock.t | Finishing of (unit -> unit) list

(* A read-only transaction at a participant, from its first entry here
   until its Remove: the keys whose snapshot-queues hold its entries, and
   the (writer, coordinator) pairs those entries were propagated to, which
   the Remove chases. *)
type reader = { mutable keys : Ids.key list; mutable forwards : (Ids.txn * Ids.node) list }

(* ---- write-ahead log records and checkpoint snapshot (durability mode) ---- *)

type logrec =
  | SPrepared of { p_txn : Ids.txn; p_prep : prep }
      (** logged before the yes-vote leaves the node *)
  | SAborted of { a_txn : Ids.txn }  (** participant processed Decide(abort) *)
  | SApplied of { ap_txn : Ids.txn; ap_vc : Vclock.t }
      (** the commit-queue drain installed the writes (redo uses the ws of the
          matching [SPrepared]) *)
  | SFinalized of { f_txn : Ids.txn }
      (** the prepared entry retired after commit (external commit at a
          write replica, or a read-only participant's Decide(commit)) *)
  | SDecided of { d_txn : Ids.txn; d_vc : Vclock.t }
      (** coordinator's commit decision; flushed before Decide is sent *)

type snap = {
  s_store : Mvstore.image;
  s_nlog : Nlog.image;
  s_node_vc : Vclock.t;
  s_coordinated_max : Vclock.t;
  s_stable_vc : Vclock.t;
  s_minted : int;
  s_ac : (Vclock.t, prep) Runtime.image;
  s_tombstones : Idset.Txns.t;
  s_forwards : (Ids.txn * (Ids.txn * Ids.node) list) list;
  s_recent_ws : Slots.Memo.image;
}

type node = {
  id : Ids.node;
  store : Mvstore.t;
  nlog : Nlog.t;
  locks : Locks.t;
  squeues : (Ids.key, Squeue.t) Hashtbl.t;
  mutable node_vc : Vclock.t;
  (* Entry-wise max over the final clocks of transactions completed at this
     node (coordinated updates and read-only snapshots).  Folded into new
     transactions' initial visibility so a client never misses what it was
     already told committed ("latest committed transaction in Ni", §III-A,
     includes locally coordinated ones). *)
  mutable coordinated_max : Vclock.t;
  (* Like the NLog's most recent clock but restricted to *finalized*
     (externally committed) transactions.  Read-only transactions start
     from this: starting from the raw NLog would make them "cover" a
     writer that is applied locally but still parked in snapshot-queues
     elsewhere, and two readers covering two different parked writers can
     order them divergently (Adya's anomaly, found by property testing). *)
  mutable stable_vc : Vclock.t;
  (* last clock value minted by this node as a coordinator (see
     [mint_xact_vn]) *)
  mutable minted : int;
  (* coordinator-side rendezvous *)
  pending_reads : read_resp Rpc.Pending.t;
  (* vote rounds (the votes' clocks merged), commit decisions with their
     clocks, the in-doubt watchdogs' Dquery rendezvous, and the
     participant's prepared entries and abort fence *)
  ac : (Vclock.t, Vclock.t, prep) Runtime.commitment;
  ack_boxes : (Ids.txn, Runtime.acks) Hashtbl.t;
      (* the completion phases' ack boxes: Acks are round 0, Finalize_acks
         round 1 *)
  (* Remove propagation machinery *)
  mutable tombstones : Idset.Txns.t;
  readers : (Ids.txn, reader) Hashtbl.t;
  (* The two writer indexes over [ac.prepared], by stamp at this node
     (see "writer indexes" below): the commit queue, and the parked
     writers, whose minimum and smallest stamp above a bound the read path
     needs once or twice per read. *)
  queued : Stampset.t;
  parked : Stampset.t;
  recent_ws : Slots.Memo.t;  (* write sets coordinated here, for Forward_remove *)
  coordinated : (Ids.txn, coordinated) Hashtbl.t;
  pending_finalized : unit Rpc.Pending.t;
  (* wake-ups *)
  nlog_changed : Sim.Cond.t;
  squeue_changed : Sim.Cond.t;
}

type stats = {
  mutable wait_covered_timeouts : int;
  (* (begin, decide-sent, external-commit) per committed update txn *)
  mutable latencies : (float * float * float) list;
  mutable collect_latencies : bool;
}

(* Online GC bookkeeping ([None] unless [Config.gc]); the inputs of the
   cluster low-watermark live in the nodes ([cluster_watermark]). *)
type gc_state = {
  (* cached cluster watermark: every input is monotone (given first-read
     pinning), so a stale cache is merely conservative *)
  mutable wm_cache : Vclock.t;
  (* running max over watermarks ever applied; folded into a reborn node's
     [coordinated_max] so recovery can never re-expose collected state *)
  mutable floor_used : Vclock.t;
  mutable applies_since_refresh : int;
  mutable refreshes : int;
  mutable versions_dropped : int;
  mutable entries_dropped : int;
}

type ext = { stats : stats; gc : gc_state option }

(* write sets a coordinator keeps for chasing Removes, in virtual seconds *)
let recent_ws_horizon = 5.0

(* A pristine node: every key of its replicas at its genesis version. *)
let make_node sim (config : Config.t) repl id =
  let nodes = config.nodes in
  {
    id;
    store = Mvstore.create ~nodes ~keys:(Replication.keys_at repl id);
    nlog = Nlog.create ~nodes ~node:id;
    locks = Locks.create sim;
    squeues = Hashtbl.create 16;
    node_vc = Vclock.zero nodes;
    coordinated_max = Vclock.zero nodes;
    stable_vc = Vclock.zero nodes;
    minted = 0;
    pending_reads = Rpc.Pending.create ();
    ac = Runtime.commitment id;
    ack_boxes = Hashtbl.create 16;
    tombstones = Idset.Txns.create ~horizon:Runtime.retention_horizon;
    readers = Hashtbl.create 16;
    queued = Stampset.create ();
    parked = Stampset.create ();
    recent_ws = Slots.Memo.create ~node:id ~horizon:recent_ws_horizon;
    coordinated = Hashtbl.create 16;
    pending_finalized = Rpc.Pending.create ();
    nlog_changed = Sim.Cond.create ();
    squeue_changed = Sim.Cond.create ();
  }

(* ---- durability helpers ---- *)

let copy_prep (p : prep) = { p with decided = None; released = [] }

(* On-disk size model, in the same spirit as [Message.wire_size]: 16-byte
   record header, 8 bytes per scalar/txn id, raw clocks, values verbatim. *)
let prep_bytes p =
  Vcodec.raw_size p.prep_vc
  + List.fold_left (fun acc _ -> acc + 12) 0 p.rs_local
  + List.fold_left (fun acc (_, v) -> acc + 12 + String.length v) 0 p.ws_local
  + (16 * List.length p.prop_set)

let logrec_bytes = function
  | SPrepared { p_prep; _ } -> 16 + 8 + 8 + prep_bytes p_prep
  | SAborted _ | SFinalized _ -> 16 + 8
  | SApplied { ap_vc = vc; _ } | SDecided { d_vc = vc; _ } -> 16 + 8 + Vcodec.raw_size vc

let snap_bytes s =
  let vc = Vcodec.raw_size in
  let checkpointed (_, p) =
    8 + 8 + prep_bytes p + (match p.final_vc with Some f -> vc f | None -> 0)
  in
  64
  + Mvstore.image_bytes s.s_store
  + Nlog.image_bytes s.s_nlog
  + vc s.s_node_vc + vc s.s_coordinated_max + vc s.s_stable_vc
  + List.fold_left (fun acc p -> acc + checkpointed p) 0 s.s_ac.entries
  + Runtime.fold_priced (fun c acc -> acc + 8 + vc c) s.s_ac 0
  + (16 * (Idset.Txns.cardinal s.s_ac.fenced + Idset.Txns.cardinal s.s_tombstones))
  + List.fold_left (fun acc (_, l) -> acc + 8 + (16 * List.length l)) 0 s.s_forwards
  + Slots.Memo.image_bytes s.s_recent_ws

include Runtime.Make (struct
  type nonrec msg = Message.payload
  type nonrec node = node
  type nonrec logrec = logrec
  type nonrec snap = snap
  type nonrec ext = ext

  let system = "sss"
  let priority = Message.priority
  let kind_of = Message.kind_name
  let tracked token inner = Message.Tracked { token; inner }
  let receipt token = Message.Delivered { token }
  let id node = node.id
  let make_node = make_node
  let record_bytes _ = logrec_bytes
  let snapshot_bytes _ = snap_bytes
end)

module Ac = Commit (struct
  type vote = Vclock.t
  type decision = Vclock.t
  type nonrec prep = prep

  let state node = node.ac

  (* the accumulator is the coordinator's private copy of its clock; the
     entry-wise max is order-insensitive, so votes fold in as they arrive *)
  let merge acc vc = (Vclock.max_into acc vc [@owned])
  let query ~req txn = Message.Dquery { req; txn }
  let outcome ~req verdict = Message.Doutcome { req; verdict }
  let locks node = node.locks
  let coord p = p.coord

  (* an applied entry released its locks in the commit-queue drain *)
  let held p =
    match p.final_vc with
    | None -> (List.map fst p.ws_local, List.map fst p.rs_local)
    | Some _ -> ([], [])

  let copy = copy_prep
end)

(* Fuzzy-checkpoint snapshot: everything a reborn node cannot re-derive
   from its peers.  [node_vc] is the only clock mutated in place, so it is
   the only one copied; the rest are published (hence frozen) values.
   The commit queue and the parked stamps are derived from [prepared] at
   recovery; reader entries are deliberately volatile (losing
   one can only make a writer's client answer earlier, never produce a
   stale read — docs/DURABILITY.md), so only the readers' forwards are
   imaged. *)
let snap_of (node : node) =
  {
    s_store = Mvstore.image_of node.store;
    s_nlog = Nlog.image node.nlog;
    s_node_vc = Vclock.copy node.node_vc;
    s_coordinated_max = node.coordinated_max;
    s_stable_vc = node.stable_vc;
    s_minted = node.minted;
    s_ac = Ac.image node;
    s_tombstones = Idset.Txns.copy node.tombstones;
    s_forwards =
      List.filter_map
        (fun (r, rd) -> if rd.forwards = [] then None else Some (r, rd.forwards))
        (Runtime.sorted_bindings node.readers);
    s_recent_ws = Slots.Memo.image node.recent_ws;
  }

let create sim (config : Config.t) hooks =
  let ext =
    {
      stats = { wait_covered_timeouts = 0; latencies = []; collect_latencies = false };
      gc =
        (if config.gc then
           Some
             {
               wm_cache = Vclock.zero config.nodes;
               floor_used = Vclock.zero config.nodes;
               applies_since_refresh = 0;
               refreshes = 0;
               versions_dropped = 0;
               entries_dropped = 0;
             }
         else None);
    }
  in
  create ~size_of:(Message.wire_size ~compress:config.compress_metadata) ~hooks ~ext sim config

let node t i = t.nodes.(i)

(* A key has a snapshot-queue only while it holds an entry: inserts create
   it ([squeue]), [squeue_remove] drops it once empty, lookups never create. *)
let squeue node key =
  match Hashtbl.find_opt node.squeues key with
  | Some q -> q
  | None ->
      let q = Squeue.create () in
      Hashtbl.add node.squeues key q;
      q

let squeue_readers node key =
  match Hashtbl.find_opt node.squeues key with Some q -> Squeue.readers q | None -> []

let squeue_remove node key txn =
  match Hashtbl.find_opt node.squeues key with
  | None -> ()
  | Some q ->
      ignore (Squeue.remove q txn : bool);
      if Squeue.is_empty q then Hashtbl.remove node.squeues key

(* Clock values are [raw * nodes + minting_node]: every value is created by
   exactly one bump or one xactVN mint, so equal scalars always denote the
   same transaction.  Without this, two transactions committing through
   disjoint nodes can end up with the same equalised clock entry at a node
   (the coordinator's xactVN maximum can resolve to a value imported from
   the transaction's causal past), and a reader that learned the value from
   one of them would silently treat the other as covered by its snapshot. *)
let bump_local t node =
  let n = t.config.Config.nodes in
  let current = Vclock.get node.node_vc node.id in
  let fresh = (((current / n) + 1) * n) + node.id in
  (* [node_vc] is exclusively owned (never published), so it is bumped in
     place; callers get a private snapshot they may share freely. *)
  (Vclock.set_into node.node_vc node.id fresh [@owned]);
  (match t.obs with Some o -> Sss_obs.Obs.incr o "vclock.advance" | None -> ());
  Vclock.copy node.node_vc

let mint_xact_vn t node ~at_least =
  let n = t.config.Config.nodes in
  let base = Int.max at_least node.minted in
  let fresh = (((base / n) + 1) * n) + node.id in
  node.minted <- fresh;
  fresh

(* Lock telemetry: an acquire, or (with [acquired] false) a release. *)
let observe_lock t ~acquired =
  match t.obs with
  | Some o -> Sss_obs.Obs.incr o (if acquired then "lock.acquire" else "lock.release")
  | None -> ()

(* ---- writer indexes ---- *)

(* A write-bearing prepared entry is queued until its writes apply, then
   parked until it retires: queued exactly while it has no final clock,
   parked exactly while it has one.  [queued] orders the first by their
   current stamp: the Decide clock's own entry once the Decide arrived,
   the vote clock's before.  [parked] orders the second by the final
   clock's own entry.  Entries enter in [enqueue] and [park_writer] (and
   in [Server.recover], which rebuilds both from the table), and every
   removal from [prepared] outside redo goes through [drop_prepared]. *)

let queue_stamp node p = Vclock.get (Option.value p.decided ~default:p.prep_vc) node.id

let enqueue node txn p = if p.ws_local <> [] then Stampset.add node.queued (queue_stamp node p) txn

(* The Decide of a queued entry re-keys it by the decision's clock. *)
let decide_queued node txn p vc =
  ignore (Stampset.remove node.queued (queue_stamp node p) txn : bool);
  p.decided <- Some vc;
  Stampset.add node.queued (queue_stamp node p) txn

let park_writer t node txn (p : prep) vc =
  p.final_vc <- Some vc;
  p.parked_at <- now t;
  Stampset.add node.parked (Vclock.get vc node.id) txn;
  match t.obs with Some o -> Sss_obs.Obs.incr o "sq.park" | None -> ()

let drop_prepared t node txn =
  (match Hashtbl.find_opt node.ac.prepared txn with
  | Some { final_vc = Some fvc; _ } -> (
      ignore (Stampset.remove node.parked (Vclock.get fvc node.id) txn : bool);
      match t.obs with Some o -> Sss_obs.Obs.incr o "sq.unpark" | None -> ())
  | Some p -> ignore (Stampset.remove node.queued (queue_stamp node p) txn : bool)
  | None -> ());
  Hashtbl.remove node.ac.prepared txn

(* Whether [txn] is still in the commit queue here. *)
let is_queued node txn =
  match Hashtbl.find_opt node.ac.prepared txn with
  | Some p -> p.ws_local <> [] && Option.is_none p.final_vc
  | None -> false

(* The writer entry of parked [txn] on [key] (the paper's writer sequence
   of that key's snapshot-queue): it stands from the apply until the
   pre-commit wait releases [key] -- key by key in paper mode, every key
   at the retirement in hardened mode. *)
let stands_on node txn key =
  match Hashtbl.find_opt node.ac.prepared txn with
  | Some { final_vc = Some _; ws_local; released; _ } ->
      List.exists (fun (k, _) -> Int.equal k key) ws_local
      && not (List.exists (Int.equal key) released)
  | _ -> false

(* ---- online version GC (Config.gc) ----

   The cluster low-watermark is the entry-wise minimum over (a) every
   node's [coordinated_max] and (b) every [Reading] coordinator entry's
   bound, the pin a read-only transaction takes at its first read (where
   its bound is refreshed and becomes monotone) and drops at commit or
   abort, or with its home's record at a crash.  Every future read-only
   bound dominates its home's [coordinated_max] (both the strict and the
   paper-mode first-read refresh fold it in), and pinned bounds only grow
   after pinning, so the watermark is non-decreasing and a cached value
   stays valid.  GC passes add no events and draw no randomness: with the
   policy on, trajectories are identical to GC-off (verified by a
   test_consistency property test). *)

let cluster_watermark t =
  let n = t.config.Config.nodes in
  let wm = Array.make n max_int in
  let lower vc =
    for w = 0 to n - 1 do
      let c = Vclock.get vc w in
      if c < wm.(w) then wm.(w) <- c
    done
  in
  Array.iter
    (fun node ->
      lower node.coordinated_max;
      (Hashtbl.iter
         (fun _ -> function Reading b -> lower b | Open _ | Finishing _ -> ())
         node.coordinated [@order_ok]))
    t.nodes;
  (* [wm] is never written after adoption *)
  (Vclock.unsafe_of_array wm [@owned])

(* The watermark as applicable to [node]'s own store and log: the local
   component additionally capped below the minimum parked apply stamp, so
   the kept covered version and the pruned log entries sit under every
   present — and, stamps being released in order, every future —
   snapshot-queue cutoff at this node. *)
let node_watermark g (node : node) =
  let wm = g.wm_cache in
  match Stampset.min_stamp node.parked with
  | Some s when Vclock.get wm node.id > s - 1 -> Vclock.set wm node.id (s - 1)
  | _ -> wm

(* Hook run by the commit-queue drain after each apply when [Config.gc] is on:
   refresh the cached watermark every 256 applies, collect the chains the
   apply just extended, advance the node's round-robin chain sweep (what
   reclaims keys written once and never touched again), and prune the node
   log on an amortized cadence. *)
let gc_after_apply t g (node : node) ~ws =
  g.applies_since_refresh <- g.applies_since_refresh + 1;
  let refreshed = g.applies_since_refresh >= 256 in
  if refreshed then begin
    g.applies_since_refresh <- 0;
    let wm = cluster_watermark t in
    g.wm_cache <- wm;
    g.floor_used <- Vclock.max g.floor_used wm;
    g.refreshes <- g.refreshes + 1
  end;
  let wm = node_watermark g node in
  List.iter
    (fun (k, _) ->
      g.versions_dropped <-
        g.versions_dropped + Mvstore.truncate_covered node.store k ~watermark:wm)
    ws;
  (* Budget scales with store size so a full pass completes within a small
     constant number of applies per chain, yet stays O(1)-ish per apply. *)
  let budget = 32 + (Mvstore.chains node.store / 32) in
  g.versions_dropped <-
    g.versions_dropped + Mvstore.sweep_covered node.store ~watermark:wm ~budget;
  if refreshed || Nlog.size node.nlog land 255 = 0 then
    g.entries_dropped <- g.entries_dropped + Nlog.prune_covered node.nlog ~watermark:wm

(* Cluster-wide storage gauges (O(nodes): both counters are maintained
   incrementally). *)
let version_count t =
  Array.fold_left (fun acc node -> acc + Mvstore.version_count node.store) 0 t.nodes

let nlog_entries t = Array.fold_left (fun acc node -> acc + Nlog.size node.nlog) 0 t.nodes

(* ---- tombstones ---- *)

let is_tombstoned node txn = Idset.Txns.mem node.tombstones txn

(* ---- reader records ---- *)

let reader_record node txn =
  match Hashtbl.find_opt node.readers txn with
  | Some r -> r
  | None ->
      let r = { keys = []; forwards = [] } in
      Hashtbl.replace node.readers txn r;
      r

let index_reader node reader key =
  let r = reader_record node reader in
  if not (List.mem key r.keys) then r.keys <- key :: r.keys

(* a top-level recursion, not [List.exists] with a closure: it runs for
   every reader entry an update transaction's read meets *)
let rec mem_forward w c = function
  | [] -> false
  | (w', c') :: l -> (Ids.equal_txn w w' && Int.equal c c') || mem_forward w c l

let add_forward node ~reader ~writer ~coord =
  let r = reader_record node reader in
  if not (mem_forward writer coord r.forwards) then r.forwards <- (writer, coord) :: r.forwards

(* ---- the transactions a node coordinates ---- *)

let is_open node txn =
  match Hashtbl.find_opt node.coordinated txn with Some (Open _ | Reading _) -> true | _ -> false

(* A reader's Remove chased [writer] here: [true] if [writer] is still
   open, which then never propagates [reader]. *)
let chase node ~writer ~reader =
  match Hashtbl.find_opt node.coordinated writer with
  | Some (Open rs) ->
      Hashtbl.replace node.coordinated writer (Open (reader :: rs));
      true
  | _ -> false

(* The commit begins: [txn] is no longer open.  Returns the readers that
   chased it. *)
let start_finishing node txn =
  let chased = match Hashtbl.find_opt node.coordinated txn with Some (Open rs) -> rs | _ -> [] in
  Hashtbl.replace node.coordinated txn (Finishing []);
  chased

(* The end of [txn] here, by commit or abort: its entry goes, and the
   Wait_finalized replies it owes leave. *)
let finish node txn =
  let owed = match Hashtbl.find_opt node.coordinated txn with Some (Finishing l) -> l | _ -> [] in
  Hashtbl.remove node.coordinated txn;
  List.iter (fun reply -> reply ()) owed
