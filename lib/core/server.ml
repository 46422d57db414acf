(** Participant-side protocol logic: read serving with version selection
    (Alg. 6), the 2PC participant (Alg. 2), internal commit and the
    Pre-Commit phase (Alg. 3 and 4), and Remove propagation (§III-C). *)

open Sss_sim
open Sss_data
open Sss_consistency
open State

(* Validation, per the paper's description of Alg. 1 lines 27-33: "checking
   if the latest version of a key matches the read one".  We compare version
   identities (the writer transaction) rather than the pseudocode's clock
   shortcut [k.last.vid[i] > T.VC[i]]: an update transaction's clock can be
   inflated past a conflicting writer by an unrelated later read served on
   the same node, which would let a lost update slip through the clock
   comparison. *)
let validate node rs =
  List.for_all
    (fun (k, observed_writer) ->
      let last = Mvstore.last node.store k in
      Mvstore.slot_writer_is node.store last observed_writer)
    rs

(* Admission control (§III-E): if an update transaction has been parked in
   this key's snapshot-queue beyond the starvation threshold, delay incoming
   read-only reads that would serialize before it (their bound does not
   cover it) with exponential back-off so the writer can drain.  Readers
   whose bound covers the writer never block it and pass straight through. *)
let admission_control t node key ~bound_local =
  let old_writer () =
    Stampset.exists_above node.parked bound_local (fun w ->
        stands_on node w key
        && now t -. (Hashtbl.find node.ac.prepared w).parked_at > Config.starvation_threshold)
  in
  (* Bounded: this is a delay to let the writer drain, not a gate — an
     unbounded loop here turns a transient pile-up into a livelock (the
     writer waits for existing readers, new readers wait for the writer). *)
  let rec loop delay budget =
    if old_writer () && budget > 0.0 then begin
      Sim.sleep t.sim delay;
      loop (Float.min (delay *. 2.0) Config.backoff_max) (budget -. delay)
    end
  in
  loop Config.backoff_initial (4.0 *. Config.backoff_max)

(* The candidate clock [cvc] is the version's stored commit clock (see
   [Mvstore.select]). *)
let version_skipper ~has_read ~maxvc ~me ~cutoff cvc =
  let n = Array.length has_read in
  let rec over_bound w =
    w < n
    && ((has_read.(w) && Vclock.get cvc w > Vclock.get maxvc w)
       || over_bound (w + 1))
  in
  over_bound 0 || Vclock.get cvc me >= cutoff

(* Visibility cutoff for read-only transactions at this node.

   Hardened mode: the smallest stamp among ALL parked (applied but not
   externally committed) writers — readers see exactly the externally
   committed prefix of the apply order; a reader whose bound covers a
   parked writer does not read around it but waits for its (in-flight)
   finalization instead (see [wait_covered_finalizing]).

   Paper mode (Alg. 6 line 7 literally): only parked writers whose
   insertion snapshot exceeds the reader's bound are hidden; covered parked
   writers are read directly.  Covered stamps are all <= the bound < every
   uncovered stamp, so the result is still a prefix of the apply order. *)
let parked_cutoff t node ~bound_local =
  let found =
    if t.config.Config.strict_order then Stampset.min_stamp node.parked
    else Stampset.first_above node.parked bound_local
  in
  match found with Some stamp -> stamp | None -> max_int

(* Hardened mode: a read-only transaction whose bound covers a parked
   writer must observe it, and may not observe it while parked — so it
   waits out the writer's external commit.  Coverage can only arise through
   finalized state (stable views, committed reads), so the covered writer's
   Finalize is already under way and the wait is a skew window; a generous
   timeout backstops the theoretically possible crossed-wait deadlock, and
   every firing is counted and reported by the experiment harness. *)
let wait_covered_finalizing t node ~bound_local =
  if not t.config.Config.strict_order then ()
  else
    let covered_parked () = Stampset.exists_leq node.parked bound_local in
    let ok =
      Sim.Cond.await_timeout t.sim node.squeue_changed ~timeout:0.1 (fun () ->
          not (covered_parked ()))
    in
    if not ok then t.ext.stats.wait_covered_timeouts <- t.ext.stats.wait_covered_timeouts + 1

let handle_read t node ~src ~req ~txn ~key ~vc ~has_read ~is_update =
  let reply ?parked_coord value rvc writer propagated =
    send t ~src:node.id ~dst:src
      (Message.Read_return { req; value; vc = rvc; writer; propagated; parked_coord })
  in
  if is_update then begin
    (* Alg. 6 lines 23-27: update transactions read the newest version and
       collect the key's reader entries as transitive anti-dependencies. *)
    let props =
      List.map (fun e -> (e.Squeue.txn, e.Squeue.sid)) (squeue_readers node key)
    in
    List.iter (fun (r, _) -> add_forward node ~reader:r ~writer:txn ~coord:src) props;
    let ver = Mvstore.last node.store key in
    let writer = Mvstore.slot_writer node.store ver in
    (* If the version read is still parked (its writer not yet externally
       committed), this update transaction must not reply to its own client
       before that writer does: report the writer's coordinator. *)
    let parked_coord =
      match Hashtbl.find_opt node.ac.prepared writer with
      | Some { final_vc = Some _; coord; _ } -> Some coord
      | _ -> None
    in
    reply ?parked_coord
      (Mvstore.slot_value node.store ver)
      (Nlog.most_recent_vc node.nlog) writer props
  end
  else begin
    let me = node.id in
    let first = not has_read.(me) in
    if first then begin
      (* First contact by this read-only transaction (Alg. 6 lines 4-14).
         The paper waits for NLog.mostRecentVC[i] >= T.VC[i]; we also wait
         out any commit-queue entry whose clock entry is within the visibility
         bound.  Clock entries only grow from prepare to decide and every
         value is a unique mint, so once no queued entry is at or below the
         bound, nothing not yet applied here can belong to the reader's
         snapshot (found by property testing: without this, a value carried
         by a committed-elsewhere transaction could cover an entry still in
         this queue). *)
      let present_on_arrival =
        if t.config.Config.strict_order then Stampset.to_list node.queued else []
      in
      Sim.Cond.await t.sim node.nlog_changed (fun () ->
          Nlog.most_recent_local node.nlog >= Vclock.get vc me
          && (not (Stampset.exists_leq node.queued (Vclock.get vc me)))
          && not (List.exists (fun (_, txn) -> is_queued node txn) present_on_arrival));
      admission_control t node key ~bound_local:(Vclock.get vc me)
    end;
    (* ExcludedSet, strengthened from Alg. 6 line 7: a read-only
       transaction observes a writer only once it is externally committed.
       Writers its bound does not cover are excluded (the reader serializes
       before them; its queue entry holds their external commit).  Writers
       its bound DOES cover cannot be read around (the bound proves someone
       already observed them), so the read waits for their — already
       imminent — finalization.  The wait is bounded: stamps minted for new
       arrivals always exceed the node's issued values, hence the bound.
       (The paper's literal bound-conditional exclusion without the wait
       lets two readers cover two different parked writers and order them
       divergently — Adya's anomaly; several variants of this were found by
       property testing.)  On repeat contact (Alg. 6 lines 15-21) the
       visibility bound is the transaction's own clock, and the cutoff only
       rises, so earlier reads at this node stay valid. *)
    let bound_local = Vclock.get vc me in
    wait_covered_finalizing t node ~bound_local;
    let cutoff = parked_cutoff t node ~bound_local in
    let maxvc = if first then Nlog.visible_max node.nlog ~has_read ~bound:vc ~cutoff else vc in
    let sid = if first then Vclock.get maxvc me else Stdlib.min bound_local (cutoff - 1) in
    (* A slow replica can reach this point after the transaction already
       committed and its Remove was processed here; the tombstone stops the
       entry from being resurrected unremovably. *)
    if not (is_tombstoned node txn) then begin
      Squeue.insert_read (squeue node key) ~txn ~sid;
      index_reader node txn key
    end;
    let skip = version_skipper ~has_read ~maxvc ~me ~cutoff in
    let ver = Mvstore.select node.store key ~skip in
    reply (Mvstore.slot_value node.store ver) maxvc (Mvstore.slot_writer node.store ver) []
  end

(* Alg. 4, strengthened: wait out every reader that must serialize before
   this writer, then tell the coordinator.  Unlike the per-key pseudocode we
   do NOT release the writer entries here — they stay until the coordinator's
   Finalize (external commit).  Removing them per key as each wait clears
   would let a fresh reader serialize after the writer through one key and
   complete while the writer is still held on another key, after which a
   later-starting reader could still serialize before it: a cycle with the
   real-time order.  Keeping the entries until external commit makes
   "serializing after a held writer" possible only for readers whose
   visibility bound already covers its (equalised) commit clock, which then
   forces them to wait for its writes on every written key. *)
let handle_remove t node ~reader =
  Idset.Txns.add node.tombstones reader ~now:(now t);
  let keys = take node.reader_keys reader in
  List.iter (fun k -> squeue_remove node k reader) keys;
  if keys <> [] then Sim.Cond.broadcast t.sim node.squeue_changed;
  List.iter
    (fun (writer, coord) ->
      send t ~src:node.id ~dst:coord (Message.Forward_remove { reader; writer }))
    (take node.forwards reader)

(* Wait until no reader entry blocks a writer of stamp [sid] at [key].
   Without durability a blocking entry always has a live owner whose
   [Remove] (or abort) clears it, so a bare condition wait suffices — and is
   kept bit-for-bit.  Crashes break that ownership two ways: a [Remove]
   processed before the crash leaves no durable trace, so redo of a
   prepare's apply re-inserts propagated readers nobody will ever remove
   again; and a home-node crash kills readers whose [Remove] was never sent
   at all.  So under durability a wait that overstays a retry slice probes
   each blocking reader's home node — "no longer open there" is exactly
   the [Remove] promise (ids are never reused and a reader stops being
   open before its removes go out), and the {!Message.Reader_done} answer
   runs the normal remove path. *)
let probe_reader t node reader =
  let home = reader.Ids.node in
  if home = node.id then begin
    if not (is_open node reader) then handle_remove t node ~reader
  end
  else send t ~src:node.id ~dst:home (Message.Reader_probe { reader })

let await_writer_unblocked t node ~sid key =
  (* looked up afresh: the key's queue may be dropped and re-created while
     this fiber waits *)
  let clear () =
    match Hashtbl.find_opt node.squeues key with
    | Some q -> not (Squeue.blocks_writer q ~sid)
    | None -> true
  in
  if not t.config.Config.durability then Sim.Cond.await t.sim node.squeue_changed clear
  else
    let slice = 4. *. Config.retry_max in
    let rec loop () =
      if
        (not (Sim.Cond.await_timeout t.sim node.squeue_changed ~timeout:slice clear))
        && node_live t node
      then begin
        List.iter
          (fun (e : Squeue.entry) ->
            if e.Squeue.propagated || e.Squeue.sid < sid then probe_reader t node e.Squeue.txn)
          (squeue_readers node key);
        loop ()
      end
    in
    loop ()

(* One eager pass of the reader-liveness probe over every entry this node
   holds — run once per recovery (on the recovered node itself and, via
   {!Message.Recovered}, on every other node).  The lazy probe above only
   fires while a writer is blocked; an entry orphaned by the crash on a key
   no writer touches again would linger forever otherwise (harmless for
   safety, but residue a quiescence audit rightly rejects).  Probing a
   reader that is still running is a no-op: its home node stays silent. *)
let probe_orphans t node =
  List.iter
    (fun key ->
      List.iter
        (fun (e : Squeue.entry) -> probe_reader t node e.Squeue.txn)
        (squeue_readers node key))
    (Runtime.sorted_keys node.squeues)

(* External commit at this replica: the writer's final clock joins the
   stable view, its prepared entry goes (unparking it), and the retirement
   is logged; returns the record's lsn. *)
let retire t node txn =
  (match Hashtbl.find_opt node.ac.prepared txn with
  | Some { final_vc = Some fvc; _ } -> node.stable_vc <- Vclock.max node.stable_vc fvc
  | _ -> ());
  drop_prepared t node txn;
  log t node (SFinalized { f_txn = txn })

let pre_commit_wait t node txn (p : prep) ~sid ~lsn =
  if t.config.Config.strict_order then begin
    List.iter (fun (k, _) -> await_writer_unblocked t node ~sid k) p.ws_local;
    (* The Ack promises the writes survive this node: it must not outrun
       their log records.  [lsn] is the apply record; the device is serial
       FIFO, so awaiting it covers the whole log prefix. *)
    if log_sync t node lsn && node_live t node then
      send t ~src:node.id ~dst:p.coord (Message.Ack { txn })
  end
  else begin
    (* Paper mode: Alg. 4 literally — release each writer entry as soon as
       its key's wait first clears; readers arriving later at that key
       simply observe the version.  Fast, but the per-key staggered release
       is the source of the anomalies documented in DESIGN.md. *)
    List.iter
      (fun (k, _) ->
        await_writer_unblocked t node ~sid k;
        p.released <- k :: p.released;
        Sim.Cond.broadcast t.sim node.squeue_changed)
      p.ws_local;
    if node_live t node then begin
      (* The prepared entry retires here in paper mode, so the retirement
         is what must reach the disk before the Ack (which covers the apply
         record too — serial device). *)
      let flsn = retire t node txn in
      let gate = match flsn with Some _ -> flsn | None -> lsn in
      if log_sync t node gate && node_live t node then
        send t ~src:node.id ~dst:p.coord (Message.Ack { txn })
    end
  end

(* Alg. 2 lines 29-36 fused with Alg. 3: apply a decided transaction at the
   head of the commit queue and park it in the same event (no window in
   which the version is visible but its writer is not yet parked). *)
let apply t node txn prep vc =
  let sid = Vclock.get vc node.id in
  ignore (Stampset.remove node.queued sid txn : bool);
  park_writer t node txn prep vc;
  List.iter
    (fun (k, v) ->
      Mvstore.install node.store k ~value:v ~vc ~writer:txn;
      if is_primary t node.id k then record t (History.Install { txn; key = k });
      List.iter
        (fun (r, rsid) ->
          if not (is_tombstoned node r) then begin
            Squeue.insert_propagated (squeue node k) ~txn:r ~sid:rsid;
            index_reader node r k
          end)
        prep.prop_set)
    prep.ws_local;
  Nlog.add node.nlog ~txn ~vc ~ws:(List.map fst prep.ws_local);
  (* watermark-driven collection: drop only state no live or future
     read-only snapshot can still reach (State.gc_after_apply) *)
  (match t.ext.gc with Some g -> gc_after_apply t g node ~ws:prep.ws_local | None -> ());
  Locks.release_txn node.locks txn;
  observe_lock t ~acquired:false;
  Sim.Cond.broadcast t.sim node.nlog_changed;
  Sim.Cond.broadcast t.sim node.squeue_changed;
  (* Logged in the same event as the apply: redo either replays the
     whole install-park-insert bundle or none of it. *)
  let lsn = log t node (SApplied { ap_txn = txn; ap_vc = vc }) in
  Sim.spawn t.sim (fun () -> pre_commit_wait t node txn prep ~sid ~lsn)

(* Commit decided transactions from the head of the commit queue, in the
   order of this node's clock entry. *)
let rec try_drain t node =
  match Stampset.min_txn node.queued with
  | Some txn -> (
      match Hashtbl.find node.ac.prepared txn with
      | { decided = Some vc; _ } as prep ->
          apply t node txn prep vc;
          try_drain t node
      | _ -> ()  (* the head awaits its Decide *))
  | None -> ()

(* Every write replica's pre-commit wait cleared once; release the writer
   entries so the transaction can externally commit.  New readers may have
   serialized before it since the Ack (they found the entry still parked),
   so the wait condition is re-checked — the client is only informed after
   every replica confirms the release, keeping "parked" synonymous with "not
   yet externally committed". *)
let handle_finalize t node ~txn ~reply_to =
  match Hashtbl.find_opt node.ac.prepared txn with
  | None -> (
      (* Duplicate finalize; the first one answered — except under
         durability, where "no entry" can mean the retirement is durable
         but the ack died with the crash (or the finalize fiber did).  The
         coordinator is retrying precisely because it lacks our ack, so
         answer again. *)
      match reply_to with
      | Some coord when t.config.Config.durability ->
          send t ~src:node.id ~dst:coord (Message.Finalize_ack { txn })
      | _ -> ())
  | Some prep ->
      prep.finalizing <- true;
      Sim.Cond.broadcast t.sim node.squeue_changed;
      Sim.spawn t.sim (fun () ->
          let my_sid =
            match prep.final_vc with Some fvc -> Vclock.get fvc node.id | None -> 0
          in
          (* Release strictly in this node's apply (stamp) order so the
             reader-side cutoff prefix can never hide an already externally
             committed transaction behind a still-parked earlier one.  The
             stamp order is global (one minted xactVN per transaction), so
             the waits are well-founded. *)
          (* Stamps are globally unique (one minted xactVN per transaction),
             so "another parked writer with a smaller stamp" is exactly "the
             index minimum is below my stamp" — our own entry sits at
             [my_sid] and can never satisfy the strict inequality. *)
          let earlier_parked () = Stampset.exists_below node.parked my_sid in
          Sim.Cond.await t.sim node.squeue_changed (fun () -> not (earlier_parked ()));
          (* Re-check for readers that serialized below this writer since
             the Ack: their clients must not be outrun.  Retiring the entry
             releases every key at once. *)
          List.iter
            (fun (k, _) -> if stands_on node txn k then await_writer_unblocked t node ~sid:my_sid k)
            prep.ws_local;
          if node_live t node then begin
            Sim.Cond.broadcast t.sim node.squeue_changed;
            let lsn = retire t node txn in
            if log_sync t node lsn && node_live t node then
              send t ~src:node.id ~dst:prep.coord (Message.Finalize_ack { txn })
          end)

let handle_decide t node ~txn ~vc ~outcome =
  match Hashtbl.find_opt node.ac.prepared txn with
  | Some prep when outcome ->
      (* node_vc is exclusively owned: fold the decide clock in place *)
      (Vclock.max_into node.node_vc vc [@owned]);
      if prep.ws_local <> [] then begin
        (* a duplicate after the apply changes nothing *)
        if Option.is_none prep.final_vc then decide_queued node txn prep vc;
        try_drain t node;
        (* Readers waiting on the commit queue re-check: the final clock
           may have moved this entry out of their visibility bound. *)
        Sim.Cond.broadcast t.sim node.nlog_changed
      end
      else begin
        (* read-only participant: retire the prepared entry durably *)
        Locks.release_txn node.locks txn;
        ignore (retire t node txn : int option)
      end
  | None when outcome -> ()
  | entry ->
      (* With no entry we voted false (kept nothing), this is a duplicate
         decide, or our Prepare is still in flight — fence the abort so a
         late Prepare cannot resurrect the transaction. *)
      if Option.is_none entry then Ac.fence t node txn;
      (* Fire-and-forget: losing an abort record only resurrects the
         prepared entry at recovery, and the in-doubt watchdog re-learns
         the abort from the coordinator. *)
      ignore (log t node (SAborted { a_txn = txn }) : int option);
      Locks.release_txn node.locks txn;
      drop_prepared t node txn;
      try_drain t node;
      Sim.Cond.broadcast t.sim node.nlog_changed

(* The termination watchdog of a prepared entry.  It completes lost
   Decides and — when the coordinator itself crashed mid-completion
   ([driving] false) — self-finalizes applied entries.  The latter is safe:
   a restarted coordinator answered no client, so finishing without it can
   violate no completion-order constraint.  An entry stays watched until it
   retires. *)
let watch t node txn p ~linger =
  let live_prep () = if node_live t node then Hashtbl.find_opt node.ac.prepared txn else None in
  Ac.watch t node txn p ~linger
    ~on_committed:(fun vc ~driving ->
      match live_prep () with
      | None -> false
      | Some prep ->
          (match prep.final_vc with
          | None ->
              (* the Decide was lost: complete the internal commit *)
              handle_decide t node ~txn ~vc ~outcome:true
          | Some _ when driving ->
              (* the coordinator is alive and mid-completion: its Finalize
                 (strict mode) or this node's own pre-commit fiber retires
                 the entry in due course *)
              ()
          | Some _ ->
              (* orphaned applied entry: the coordinator restarted and no
                 longer drives completion.  In paper mode the (respawned)
                 pre-commit fiber retires the entry; in strict mode nobody
                 else will. *)
              if t.config.Config.strict_order && not prep.finalizing then
                handle_finalize t node ~txn ~reply_to:None);
          true)
    ~on_aborted:(fun () ->
      match live_prep () with
      | Some prep -> handle_decide t node ~txn ~vc:prep.prep_vc ~outcome:false
      | None -> ())

let handle_prepare t node ~txn ~coord ~vc ~rs ~ws ~propagated =
  let local_rs = List.filter (fun (k, _) -> Replication.is_replica t.repl node.id k) rs in
  let local_ws = List.filter (fun (k, _) -> Replication.is_replica t.repl node.id k) ws in
  let got_locks =
    (not (Ac.fenced node txn))
    && Locks.acquire_all node.locks txn
         ~exclusive:(List.map fst local_ws)
         ~shared:(List.map fst local_rs) ~timeout:Config.lock_timeout
  in
  (* The coordinator's vote timeout can beat a lock wait: its Decide(abort)
     then overtakes this very Prepare.  A late success here would strand an
     orphan in the commit queue, so the abort decision wins.  The lock wait is
     also a suspension: the node may have crashed under it, in which case
     nothing externally visible may happen on this (stale) record. *)
  let ok =
    got_locks
    && validate node local_rs
    && (not (Ac.fenced node txn))
    && node_live t node
  in
  if not ok then begin
    Locks.release_txn node.locks txn;
    if got_locks then observe_lock t ~acquired:false;
    if node_live t node then
      send t ~src:node.id ~dst:coord (Message.Vote { txn; ok = false; vc })
  end
  else begin
    observe_lock t ~acquired:true;
    let prep_vc = if local_ws <> [] then bump_local t node else Nlog.most_recent_vc node.nlog in
    let prep =
      { rs_local = local_rs; ws_local = local_ws; prop_set = propagated; coord; prep_vc;
        decided = None; final_vc = None; parked_at = 0.; released = []; finalizing = false }
    in
    enqueue node txn prep;
    (* The yes-vote is a durable promise (presumed abort: a no-vote needs
       no record).  Logged atomically with the commit-queue insertion. *)
    if
      Ac.prepare t node txn prep (SPrepared { p_txn = txn; p_prep = copy_prep prep }) ~watch
      && node_live t node
    then send t ~src:node.id ~dst:coord (Message.Vote { txn; ok = true; vc = prep_vc })
  end

(* An open writer has not prepared yet: [chase] makes sure it never
   propagates this reader at all. *)
let handle_forward_remove t node ~reader ~writer =
  if not (chase node ~writer ~reader) then
    match Slots.Memo.find node.recent_ws writer with
    | Some ws_keys ->
        send_nodes t ~src:node.id ~dsts:(replica_nodes t ws_keys)
          (Message.Remove { txn = reader })
    | None -> ()  (* long finished; its propagated entries are already gone *)

let rec dispatch t node ~src payload =
  match payload with
  | Message.Tracked { token; inner } ->
      if receive t ~me:node.id ~src token then dispatch t node ~src inner
  | Message.Delivered { token } -> Sss_net.Reliable.delivered t.rel token
  | Message.Read_request { req; txn; key; vc; has_read; is_update } ->
      handle_read t node ~src ~req ~txn ~key ~vc ~has_read ~is_update
  | Message.Read_return { req; value; vc; writer; propagated; parked_coord } ->
      Sss_net.Rpc.Pending.resolve t.sim node.pending_reads req
        { value; vc; writer; propagated; parked_coord; from = src }
  | Message.Prepare { txn; coord; vc; rs; ws; propagated } ->
      handle_prepare t node ~txn ~coord ~vc ~rs ~ws ~propagated
  | Message.Vote { txn; ok; vc } -> Ac.vote_arrived t node txn ~ok vc
  | Message.Decide { txn; vc; outcome } -> handle_decide t node ~txn ~vc ~outcome
  | Message.Ack { txn } -> ack_arrived t node.ack_boxes txn ~src ~round:0
  | Message.Finalize { txn } -> handle_finalize t node ~txn ~reply_to:(Some src)
  | Message.Finalize_ack { txn } -> ack_arrived t node.ack_boxes txn ~src ~round:1
  | Message.Dquery { req; txn } -> Ac.answer t node ~src ~req txn
  | Message.Doutcome { req; verdict } -> Ac.outcome_arrived t node ~req verdict
  | Message.Wait_finalized { writer; req } -> (
      match Hashtbl.find_opt node.coordinated writer with
      | Some (Finishing replies) ->
          let reply () = send t ~src:node.id ~dst:src (Message.Finalized { req }) in
          Hashtbl.replace node.coordinated writer (Finishing (reply :: replies))
      | _ -> send t ~src:node.id ~dst:src (Message.Finalized { req }))
  | Message.Finalized { req } -> Sss_net.Rpc.Pending.resolve t.sim node.pending_finalized req ()
  | Message.Remove { txn } -> handle_remove t node ~reader:txn
  | Message.Forward_remove { reader; writer } -> handle_forward_remove t node ~reader ~writer
  | Message.Reader_probe { reader } ->
      if not (is_open node reader) then
        send t ~src:node.id ~dst:src (Message.Reader_done { reader })
  | Message.Reader_done { reader } -> handle_remove t node ~reader
  | Message.Recovered { node = _ } -> probe_orphans t node

(* ---- crash & redo recovery (durability mode; docs/DURABILITY.md) ---- *)

let load_snap t node (s : snap) =
  Mvstore.restore node.store s.s_store;
  Nlog.restore node.nlog s.s_nlog;
  node.node_vc <- Vclock.copy s.s_node_vc;
  node.coordinated_max <- s.s_coordinated_max;
  node.stable_vc <- s.s_stable_vc;
  node.minted <- s.s_minted;
  Ac.load t node s.s_ac;
  node.tombstones <- Idset.Txns.copy s.s_tombstones;
  List.iter (fun (r, l) -> Hashtbl.replace node.forwards r (ref l)) s.s_forwards;
  Slots.Memo.restore node.recent_ws s.s_recent_ws

let replay_record t node = function
  | SPrepared { p_txn; p_prep = p } ->
      Hashtbl.replace node.ac.prepared p_txn (copy_prep p);
      (* the prepare's clock bump must stay visible to [bump_local]'s
         uniqueness argument even though the bump itself was volatile *)
      (Vclock.max_into node.node_vc p.prep_vc [@owned])
  | SAborted { a_txn } ->
      Ac.fence t node a_txn;
      Hashtbl.remove node.ac.prepared a_txn
  | SApplied { ap_txn; ap_vc } -> (
      match Hashtbl.find_opt node.ac.prepared ap_txn with
      | None -> ()
      | Some prep ->
          (* redo of the try_drain bundle, from the prepare's write set *)
          prep.final_vc <- Some ap_vc;
          (Vclock.max_into node.node_vc ap_vc [@owned]);
          List.iter
            (fun (k, v) -> Mvstore.install node.store k ~value:v ~vc:ap_vc ~writer:ap_txn)
            prep.ws_local;
          (* watermark GC waits for the next live apply: replay must not
             consult a watermark computed against the pre-crash registry *)
          Nlog.add node.nlog ~txn:ap_txn ~vc:ap_vc ~ws:(List.map fst prep.ws_local))
  | SFinalized { f_txn } -> (
      match Hashtbl.find_opt node.ac.prepared f_txn with
      | None -> ()
      | Some prep ->
          (match prep.final_vc with
          | Some fvc -> node.stable_vc <- Vclock.max node.stable_vc fvc
          | None -> ());
          Hashtbl.remove node.ac.prepared f_txn)
  | SDecided { d_txn; d_vc } ->
      (* restored decisions no longer drive completion: in-doubt
         participants asking about them must self-finalize *)
      Ac.restore t node d_txn d_vc;
      (* re-learn the mint floor so this node never re-mints a clock value
         a pre-crash decision already published *)
      for i = 0 to Vclock.size d_vc - 1 do
        if Vclock.get d_vc i > node.minted then node.minted <- Vclock.get d_vc i
      done

(* Wake the dead record's waiters so their fibers observe the crash (they
   re-check [node_live] and raise); sorted for determinism. *)
let wound t old exn =
  Sss_net.Rpc.Pending.poison_all t.sim old.pending_reads exn;
  Sss_net.Rpc.Pending.poison_all t.sim old.pending_finalized exn;
  Ac.wound t old exn;
  fill_acks t old.ack_boxes;
  Sim.Cond.broadcast t.sim old.nlog_changed;
  Sim.Cond.broadcast t.sim old.squeue_changed;
  (* Read-only transactions homed here die with the node (their clients
     observe Crashed and abandon them): release their watermark pins, or
     the GC floor would stay anchored to a snapshot nobody can use. *)
  match t.ext.gc with
  | Some g ->
      List.iter
        (fun (txn, _) -> Hashtbl.remove g.ro_bounds txn)
        (Runtime.sorted_bindings old.coordinated)
  | None -> ()

let recover t node =
  let id = node.id in
  (* Rebuild the writer indexes from the prepared table: applied entries
     re-park, the others with writes re-queue at their vote stamp (the
     in-doubt ones re-take their locks in [Ac.recover]). *)
  List.iter
    (fun (txn, (p : prep)) ->
      match p.final_vc with Some fvc -> park_writer t node txn p fvc | None -> enqueue node txn p)
    (Runtime.sorted_bindings node.ac.prepared);
  (* The checkpoint may predate read-only completions whose bounds fed past
     watermarks; folding the GC floor into the reborn node's visibility
     floor guarantees its future readers start at or above everything
     already collected. *)
  (match t.ext.gc with
  | Some g -> node.coordinated_max <- Vclock.max node.coordinated_max g.floor_used
  | None -> ());
  (* Resume the interrupted lifecycles: applied entries re-enter the
     pre-commit wait (their Ack may have been lost with us; re-sends are
     deduplicated at the coordinator), finalizing entries re-enter the
     release path. *)
  Ac.recover t node ~watch
    ~on_rejoin:(fun () ->
      Sim.Cond.broadcast t.sim node.nlog_changed;
      Sim.Cond.broadcast t.sim node.squeue_changed)
    ~resume:(fun txn (p : prep) ->
      match p.final_vc with
      | Some _ when p.finalizing -> handle_finalize t node ~txn ~reply_to:None
      | Some fvc ->
          let sid = Vclock.get fvc id in
          Sim.spawn t.sim (fun () -> pre_commit_wait t node txn p ~sid ~lsn:None)
      | None -> ());
  (* Reclaim entries the crash orphaned, here and cluster-wide: redo just
     re-inserted propagated readers whose pre-crash Remove left no durable
     trace, and readers homed here died without sending theirs.  One probe
     pass per node. *)
  probe_orphans t node;
  for dst = 0 to t.config.Config.nodes - 1 do
    if dst <> id then send t ~src:id ~dst (Message.Recovered { node = id })
  done

let hooks =
  { handler = dispatch; wound; snapshot = snap_of; load = load_snap; replay = replay_record;
    recover }
