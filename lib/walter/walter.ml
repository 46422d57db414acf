(* Walter-style Parallel Snapshot Isolation (Sovran et al., SOSP'11),
   re-implemented on the same substrate as SSS, as the paper does for its
   evaluation (§V).

   Model implemented (the parts the YCSB evaluation exercises):
   - every transaction gets a start vector timestamp: one sequence number
     per site, denoting the committed prefix applied at its home site;
   - reads return the newest version visible in the start timestamp,
     without validation; read-only transactions never abort and commit
     locally (no messages) — the property that makes Walter the throughput
     upper bound in Fig. 3;
   - update transactions conflict-check their write-set at each written
     key's preferred site (the key's primary replica): fast path when every
     primary is the home site (purely local commit), slow path via a
     2PC-like round otherwise;
   - the client is answered as soon as the home site commits; writes
     propagate to the other replicas asynchronously, in per-site sequence
     order (PSI's "long fork" is observable: snapshots on different sites
     may order non-conflicting transactions differently).

   Omitted (not exercised by the benchmark): c-sets/counting sets, cross-
   data-center disaster tolerance. *)

open Sss_sim
open Sss_data
open Sss_net
open Sss_consistency

type msg =
  | Read_req of { req : int; key : Ids.key; start : Vclock.t }
  | Read_ret of { req : int; value : string; writer : Ids.txn }
  | Wprepare of {
      txn : Ids.txn;
      coord : Ids.node;
      start : Vclock.t;
      keys : Ids.key list;  (* written keys whose primary is this node *)
    }
  | Wvote of { txn : Ids.txn; ok : bool }
  | Wdecide of { txn : Ids.txn; outcome : bool }
  | Propagate of {
      txn : Ids.txn;
      site : Ids.node;
      seq : int;
      start : Vclock.t;
      writes : (Ids.key * string) list;  (* full write set; nodes filter *)
    }
  | Query of { req : int; txn : Ids.txn }
  | Outcome of { req : int; verdict : unit Sss_kv.Runtime.verdict }
  | Pull of { have : Vclock.t }
      (* recovery: "re-send me your own commits past [have]" *)
  | Tracked of { token : int; inner : msg }
  | Delivered of { token : int }

let rec priority = function
  | Wdecide _ -> 40
  | Wvote _ | Query _ | Outcome _ -> 60
  | Propagate _ | Pull _ -> 80
  | Read_req _ | Read_ret _ | Wprepare _ -> 100
  | Tracked { inner; _ } -> priority inner
  | Delivered _ -> 10

let rec message_kind = function
  | Read_req _ -> "read_request"
  | Read_ret _ -> "read_return"
  | Wprepare _ -> "prepare"
  | Wvote _ -> "vote"
  | Wdecide _ -> "decide"
  | Propagate _ -> "propagate"
  | Query _ -> "query"
  | Outcome _ -> "outcome"
  | Pull _ -> "pull"
  | Tracked { inner; _ } -> message_kind inner
  | Delivered _ -> "delivered"

(* A yes-vote's local state: enough to restore locks and find the
   coordinator after a restart. *)
type wprep = { keys : Ids.key list; coord : Ids.node }

(* Durability-mode write-ahead-log records (docs/DURABILITY.md). *)
type logrec =
  | WCommit of {
      txn : Ids.txn;
      seq : int;
      start : Vclock.t;
      writes : (Ids.key * string) list;
    }  (* commit decided at this (home) site *)
  | WPrepared of { txn : Ids.txn; prep : wprep }  (* slow-path yes vote *)
  | WAborted of { txn : Ids.txn }  (* slow-path Wdecide(false) seen *)

(* Checkpoint image: frozen chains, the rest copied in deterministic
   (sorted) order. *)
type snap = {
  s_chains : Chains.t;
  s_applied : Vclock.t;
  s_site_seq : int;
  s_origin : (int * (Ids.txn * Vclock.t * (Ids.key * string) list)) list;
  s_ac : (unit, wprep) Sss_kv.Runtime.image;  (* commits decided here, slow-path entries *)
}

type node = {
  id : Ids.node;
  mutable chains : Chains.t;
  mutable applied : Vclock.t;  (* committed prefix applied locally, per site *)
  mutable site_seq : int;  (* commits originated at this site *)
  holdback : (int * (Ids.txn * Vclock.t * (Ids.key * string) list)) list array;  (* by site *)
  locks : Locks.t;
  pending_reads : (string * Ids.txn) Rpc.Pending.t;
  ac : (unit, unit, wprep) Sss_kv.Runtime.commitment;
      (* slow-path rounds and entries, commits decided here *)
  applied_changed : Sim.Cond.t;
  (* durability mode only *)
  origin_log : (int, Ids.txn * Vclock.t * (Ids.key * string) list) Hashtbl.t;
      (* own-site commit order, seq -> payload; serves Pull re-sends *)
}

let make_node sim (config : Sss_kv.Config.t) repl id =
  {
    id;
    chains = Chains.create (Replication.keys_at repl id);
    applied = Vclock.zero config.nodes;
    site_seq = 0;
    holdback = Array.make config.nodes [];
    locks = Locks.create sim;
    pending_reads = Rpc.Pending.create ();
    ac = Sss_kv.Runtime.commitment id;
    applied_changed = Sim.Cond.create ();
    origin_log = Hashtbl.create 16;
  }

(* ---------- durability (Config.durability; docs/DURABILITY.md) ---------- *)

(* byte-size model for log records, same flavour as Message.wire_size *)
let writes_bytes ws = List.fold_left (fun acc (_, v) -> acc + 12 + String.length v) 0 ws

let logrec_bytes nodes = function
  | WCommit { writes; _ } -> 16 + 16 + (8 * nodes) + writes_bytes writes
  | WPrepared { prep; _ } -> 16 + 16 + (8 * List.length prep.keys)
  | WAborted _ -> 16 + 8

let snap_bytes nodes (s : snap) =
  64
  + Chains.image_bytes s.s_chains ~nodes
  + (8 * nodes)
  + List.fold_left
      (fun acc (_, (_, _, ws)) -> acc + 16 + (8 * nodes) + writes_bytes ws)
      0 s.s_origin
  + Sss_kv.Runtime.fold_priced (fun () acc -> acc + 8) s.s_ac 0
  + List.fold_left (fun acc (_, p) -> acc + 16 + (8 * List.length p.keys)) 0 s.s_ac.entries
  + (8 * Idset.Txns.cardinal s.s_ac.fenced)

module Rt = Sss_kv.Runtime.Make (struct
  type nonrec msg = msg
  type nonrec node = node
  type nonrec logrec = logrec
  type nonrec snap = snap
  type ext = unit

  let system = "walter"
  let priority = priority
  let kind_of = message_kind
  let tracked token inner = Tracked { token; inner }
  let receipt token = Delivered { token }
  let id (n : node) = n.id
  let make_node = make_node
  let record_bytes (c : Sss_kv.Config.t) = logrec_bytes c.nodes
  let snapshot_bytes (c : Sss_kv.Config.t) = snap_bytes c.nodes
end)

include Rt

module Ac = Commit (struct
  type vote = unit
  type decision = unit
  type prep = wprep

  let state (n : node) = n.ac
  let merge () () = ()
  let query ~req txn = Query { req; txn }
  let outcome ~req verdict = Outcome { req; verdict }
  let locks (n : node) = n.locks
  let coord (p : wprep) = p.coord
  let held (p : wprep) = (p.keys, [])
  let copy p = p
end)

let snap_of (node : node) =
  {
    s_chains = Chains.freeze node.chains;
    s_applied = node.applied;
    s_site_seq = node.site_seq;
    s_origin =
      List.map (fun s -> (s, Hashtbl.find node.origin_log s))
        (Sss_kv.Runtime.sorted_keys node.origin_log);
    s_ac = Ac.image node;
  }

type cluster = Rt.t

let primary t key = List.hd (Replication.replicas t.repl key)

(* Walter's own per-transaction state is its start snapshot. *)
type handle = Vclock.t Rt.handle

(* Apply a committed transaction's writes locally and advance the per-site
   applied prefix (in per-site sequence order; out-of-order deliveries are
   held back). *)
let rec apply_committed t (node : node) ~txn ~site ~seq ~start ~writes =
  if seq = Vclock.get node.applied site + 1 then begin
    List.iter
      (fun (k, value) ->
        let h = Replication.handle node.chains.keys k in
        if h >= 0 then begin
          if primary t k = node.id then record t (History.Install { txn; key = k });
          Chains.install node.chains h ~value ~writer:txn ~seq ~start
        end)
      writes;
    node.applied <- Vclock.set node.applied site seq;
    Hashtbl.remove node.ac.prepared txn;
    Locks.release_txn node.locks txn;
    Sim.Cond.broadcast t.sim node.applied_changed;
    (* drain any held-back successor from the same site *)
    let next = seq + 1 in
    match List.assoc_opt next node.holdback.(site) with
    | None -> ()
    | Some (txn', start', writes') ->
        node.holdback.(site) <- List.remove_assoc next node.holdback.(site);
        apply_committed t node ~txn:txn' ~site ~seq:next ~start:start' ~writes:writes'
  end
  else if seq > Vclock.get node.applied site && not (List.mem_assoc seq node.holdback.(site)) then
    node.holdback.(site) <- (seq, (txn, start, writes)) :: node.holdback.(site)

(* A slow-path abort decision, from Wdecide(false) or the watchdog. *)
let abort_prepared t (node : node) txn =
  Ac.fence t node txn;
  Hashtbl.remove node.ac.prepared txn;
  (* presumed abort: the record spares recovery a query, but nothing
     externally visible depends on it — no flush wait *)
  ignore (log t node (WAborted { txn }) : int option);
  Locks.release_txn node.locks txn

(* The termination watchdog of a slow-path yes vote.  On "committed"
   nothing is done here: the (re-)propagated write applies the transaction
   and releases its locks. *)
let watch t (node : node) txn prep ~linger =
  Ac.watch t node txn prep ~linger
    ~on_committed:(fun () ~driving:_ -> false)
    ~on_aborted:(fun () ->
      if node_live t node && Ac.in_doubt node txn then abort_prepared t node txn)

let handle_prepare t (node : node) ~txn ~coord ~start ~keys =
  let ok =
    (not (Ac.fenced node txn))
    && Locks.acquire_all node.locks txn ~exclusive:keys ~shared:[]
         ~timeout:Sss_kv.Config.lock_timeout
    && List.for_all (fun k -> Chains.ww_ok node.chains (key_handle t node.id k) ~start) keys
    && not (Ac.fenced node txn)
    (* the node may have crashed while this fiber waited for the locks:
       a stale record must not vote (or log) on behalf of the fresh one *)
    && node_live t node
  in
  if not ok then begin
    Locks.release_txn node.locks txn;
    send t ~src:node.id ~dst:coord (Wvote { txn; ok = false })
  end
  else begin
    let prep = { keys; coord } in
    if Ac.prepare t node txn prep (WPrepared { txn; prep }) ~watch then
      send t ~src:node.id ~dst:coord (Wvote { txn; ok = true })
  end

let rec dispatch t (node : node) ~src payload =
  match payload with
  | Tracked { token; inner } -> if receive t ~me:node.id ~src token then dispatch t node ~src inner
  | Delivered { token } -> Reliable.delivered t.rel token
  | Read_req { req; key; start } ->
      (* Walter reads block until the local replica has applied the whole
         snapshot (Sovran et al. §4): otherwise a lagging replica would
         return stale data the snapshot already covers. *)
      Sim.Cond.await t.sim node.applied_changed (fun () -> Vclock.leq start node.applied);
      let c = node.chains and h = key_handle t node.id key in
      let s = Chains.visible_read c h ~start in
      send t ~src:node.id ~dst:src
        (Read_ret { req; value = Chains.value c h s; writer = Chains.writer c s })
  | Read_ret { req; value; writer } ->
      Rpc.Pending.resolve t.sim node.pending_reads req (value, writer)
  | Wprepare { txn; coord; start; keys } -> handle_prepare t node ~txn ~coord ~start ~keys
  | Wvote { txn; ok } -> Ac.vote_arrived t node txn ~ok ()
  | Wdecide { txn; outcome } ->
      if not outcome then abort_prepared t node txn
      (* on commit the locks are released when the propagated write applies,
         so no concurrent writer can slip a conflicting check in between *)
  | Propagate { txn; site; seq; start; writes } ->
      apply_committed t node ~txn ~site ~seq ~start ~writes
  | Query { req; txn } -> Ac.answer t node ~src ~req txn
  | Outcome { req; verdict } -> Ac.outcome_arrived t node ~req verdict
  | Pull { have } ->
      (* recovery catch-up: re-send this site's own commits the puller has
         not applied yet, in sequence order *)
      let floor = Vclock.get have node.id in
      let seqs = List.filter (fun s -> s > floor) (Sss_kv.Runtime.sorted_keys node.origin_log) in
      List.iter
        (fun seq ->
          let txn, start, writes = Hashtbl.find node.origin_log seq in
          send t ~src:node.id ~dst:src
            (Propagate { txn; site = node.id; seq; start; writes }))
        seqs

(* ------------- crash / recovery (durability mode) ------------- *)

let load_snap t (node : node) (s : snap) =
  node.chains <- Chains.freeze s.s_chains;
  node.applied <- s.s_applied;
  node.site_seq <- s.s_site_seq;
  List.iter (fun (seq, p) -> Hashtbl.replace node.origin_log seq p) s.s_origin;
  Ac.load t node s.s_ac

(* Redo one durable record.  Chains are not touched here: own-site commits
   past the applied prefix are re-applied (and re-propagated) in a second
   pass, remote-site writes are pulled from their origins. *)
let replay_record t (node : node) = function
  | WCommit { txn; seq; start; writes } ->
      Hashtbl.replace node.origin_log seq (txn, start, writes);
      Ac.restore t node txn ();
      if seq > node.site_seq then node.site_seq <- seq
  | WPrepared { txn; prep } -> Hashtbl.replace node.ac.prepared txn prep
  | WAborted { txn } ->
      Hashtbl.remove node.ac.prepared txn;
      Ac.fence t node txn

let wound t (old : node) e =
  Rpc.Pending.poison_all t.sim old.pending_reads e;
  Ac.wound t old e

let recover t (node : node) =
  let id = node.id in
  (* redo own-site commits past the applied prefix: a commit can be durable
     without its local apply (or its Propagate fan-out) having happened *)
  let resend = ref [] in
  let rec catchup () =
    let next = Vclock.get node.applied id + 1 in
    if next <= node.site_seq then
      match Hashtbl.find_opt node.origin_log next with
      | None -> ()
      | Some (txn, start, writes) ->
          apply_committed t node ~txn ~site:id ~seq:next ~start ~writes;
          resend := (txn, next, start, writes) :: !resend;
          catchup ()
  in
  catchup ();
  Ac.recover t node ~watch ~on_rejoin:(fun () ->
      List.iter
        (fun (txn, seq, start, writes) ->
          for dst = 0 to t.config.Sss_kv.Config.nodes - 1 do
            if dst <> id then
              send t ~src:id ~dst (Propagate { txn; site = id; seq; start; writes })
          done)
        (List.rev !resend);
      (* fetch remote-site commits this replica missed while down *)
      for dst = 0 to t.config.Sss_kv.Config.nodes - 1 do
        if dst <> id then send t ~src:id ~dst (Pull { have = node.applied })
      done)

let hooks =
  { handler = dispatch; wound; snapshot = snap_of; load = load_snap; replay = replay_record;
    recover }

let create sim config = Rt.create ~hooks ~ext:() sim config

let begin_txn cl ~node ~read_only = start cl ~node ~read_only (fun home _ -> home.applied)

let remote_read h key =
  let value, writer =
    fetch h h.home.pending_reads key (fun req -> Read_req { req; key; start = h.own })
  in
  record h.cl (History.Read { txn = h.txn; key; writer });
  value

let read h key = Rt.read h key remote_read

(* Commit at the home site: bump the site sequence, apply locally (which
   also numbers versions for keys whose primary is the home), answer the
   client, and propagate asynchronously. *)
let commit_at_home h =
  let cl = h.cl in
  (* the fiber may have suspended (locks, votes) since the handle was
     made: a stale record must not write to the shared log *)
  if cl.config.Sss_kv.Config.durability && not (node_live cl h.home) then
    crashed h.home.id;
  h.home.site_seq <- h.home.site_seq + 1;
  let seq = h.home.site_seq in
  if cl.config.Sss_kv.Config.durability then begin
    (* the local apply, the client answer and the Propagate fan-out all
       wait for the decision's flush *)
    Hashtbl.replace h.home.origin_log seq (h.txn, h.own, h.ws);
    Ac.decide cl h.home h.txn () (WCommit { txn = h.txn; seq; start = h.own; writes = h.ws })
  end;
  apply_committed cl h.home ~txn:h.txn ~site:h.home.id ~seq ~start:h.own ~writes:h.ws;
  complete h ~ws:(List.map fst h.ws);
  for dst = 0 to cl.config.Sss_kv.Config.nodes - 1 do
    if dst <> h.home.id then
      send cl ~src:h.home.id ~dst
        (Propagate { txn = h.txn; site = h.home.id; seq; start = h.own; writes = h.ws })
  done;
  Ac.completed h.home h.txn;
  true

let commit_update h =
  let cl = h.cl in
  (* group written keys by preferred site *)
  let by_primary = Hashtbl.create 4 in
  List.iter
    (fun (k, _) ->
      let p = primary cl k in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_primary p) in
      Hashtbl.replace by_primary p (k :: prev))
    h.ws;
  (* sorted by site id: prepare-message send order must not depend on
     Hashtbl bucket order *)
  let sites =
    (Hashtbl.fold (fun s ks acc -> (s, ks) :: acc) by_primary [] [@order_ok])
    |> List.sort (fun (s1, _) (s2, _) -> Int.compare s1 s2)
  in
  match sites with
  | [ (s, ks) ] when s = h.home.id ->
      (* fast path: all preferred sites local *)
      if
        Locks.acquire_all h.home.locks h.txn ~exclusive:ks ~shared:[]
          ~timeout:Sss_kv.Config.lock_timeout
        && List.for_all (fun k -> Chains.ww_ok h.home.chains (key_handle cl h.home.id k) ~start:h.own) ks
      then commit_at_home h  (* locks released when the local apply runs *)
      else begin
        Locks.release_txn h.home.locks h.txn;
        refuse h Conflict
      end
  | _ ->
      (* slow path: conflict-check at each preferred site *)
      let round = Ac.open_round h.home h.txn ~expect:(List.length sites) () in
      List.iter
        (fun (s, ks) ->
          send cl ~src:h.home.id ~dst:s
            (Wprepare { txn = h.txn; coord = h.home.id; start = h.own; keys = ks }))
        sites;
      let result = Ac.await_round cl h.home h.txn round in
      let all_ok = Option.is_none result in
      send_nodes cl ~src:h.home.id ~dsts:(List.map fst sites)
        (Wdecide { txn = h.txn; outcome = all_ok });
      match result with
      | None -> commit_at_home h
      | Some reason -> refuse h reason

(* Read-only (or write-free) transactions commit locally and never abort. *)
let commit h =
  close h "commit";
  if h.ws = [] then commit_write_free h else commit_update h

let store_words t = sum_nodes t (fun (n : node) -> Chains.words n.chains)

let store_repr t node = Obj.repr t.nodes.(node).chains
let checkpoint_chains t node = Option.map (fun s -> s.s_chains) (checkpoint t node)

let latest t ~node key =
  let n = t.nodes.(node) and h = key_handle t node key in
  let s = Chains.visible_read n.chains h ~start:n.applied in
  (Chains.value n.chains h s, Chains.writer n.chains s)

let quiescent t =
  residue_report t (fun (n : node) ->
      Ac.lingering n
      @ residue n "lock holders" (Locks.holder_count n.locks)
      @ List.concat
          (List.mapi
             (fun site l ->
               residue n (Printf.sprintf "held-back propagations from site %d" site) (List.length l))
             (Array.to_list n.holdback)))
