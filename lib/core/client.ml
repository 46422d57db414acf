(** Coordinator-side transaction execution: read operations (Alg. 5),
    write buffering, and the commit protocol (Alg. 1) including the wait
    for external commit. *)

open Sss_data
open State

(* SSS's own per-transaction state on the runtime's handle. *)
type own = {
  mutable vc : Vclock.t;
  has_read : bool array;
  mutable started : bool;  (* has issued its first read *)
  mutable prop_set : (Ids.txn * int) list;
  (* parked writers whose versions this update transaction read; the client
     response is chained behind their external commits *)
  mutable observed_parked : (Ids.txn * Ids.node) list;
}

type handle = own State.handle

(* The visibility floor a transaction starts from, at begin and again at
   its first read.  Hardened mode: read-only transactions start from the
   externally committed (stable) view plus the node's session knowledge, so
   they only ever observe externally committed data; update transactions
   (and paper mode) start from the freshest internally committed view
   (Alg. 5 / §III-A). *)
let visibility_floor cl (home : State.node) ~ro =
  if ro && cl.config.Config.strict_order then Vclock.max home.stable_vc home.coordinated_max
  else Vclock.max (Nlog.most_recent_vc home.nlog) home.coordinated_max

let begin_txn cl ~node ~read_only =
  start cl ~node ~read_only (fun home txn ->
      Hashtbl.replace home.coordinated txn (Open []);
      {
        vc = visibility_floor cl home ~ro:read_only;
        has_read = Array.make cl.config.nodes false;
        started = false;
        prop_set = [];
        observed_parked = [];
      })

let remote_read h key =
  let o = h.own in
  if not o.started then begin
    o.vc <- visibility_floor h.cl h.home ~ro:h.ro;
    o.started <- true;
    (* the bound is now fixed-then-growing, so this is the moment the
       snapshot can pin the GC watermark (pinning at begin would be wrong:
       the paper-mode refresh is not entry-wise monotone) *)
    if h.ro then Hashtbl.replace h.home.coordinated h.txn (Reading o.vc)
  end;
  (* All replicas are contacted; the fastest answer wins (§III-C). *)
  let resp =
    State.fetch h h.home.pending_reads key (fun req ->
        Message.Read_request
          {
            req;
            txn = h.txn;
            key;
            vc = o.vc;
            has_read = Array.copy o.has_read;
            is_update = not h.ro;
          })
  in
  o.has_read.(resp.from) <- true;
  o.vc <- Vclock.max o.vc resp.vc;
  List.iter
    (fun p -> if not (List.mem p o.prop_set) then o.prop_set <- p :: o.prop_set)
    resp.propagated;
  (match resp.parked_coord with
  | Some coord ->
      let entry = (resp.writer, coord) in
      if not (List.mem entry o.observed_parked) then
        o.observed_parked <- entry :: o.observed_parked
  | None -> ());
  observed h key resp.writer;
  resp.value

(* Read-your-writes from the write buffer (Alg. 5 line 2), else [remote_read]. *)
let read h key = State.read h key remote_read

let read_keys h = List.sort_uniq Int.compare (List.map fst h.rs)

(* Chain this transaction's client response behind the external commits of
   the parked writers it read from (wr-order external consistency: a reader
   of X must not complete before X does).  The wait relation follows strict
   commit-clock domination, so it is deadlock-free. *)
let await_observed_parked h =
  let cl = h.cl in
  if not cl.config.Config.strict_order then ()
  else
  let slots =
    List.map
      (fun (writer, coord) ->
        let req, ivar = Sss_net.Rpc.Pending.fresh h.home.pending_finalized in
        send cl ~src:h.home.id ~dst:coord (Message.Wait_finalized { writer; req });
        ivar)
      h.own.observed_parked
  in
  List.iter
    (fun ivar ->
      match Sss_net.Rpc.Pending.await_timeout cl.sim ivar ~timeout:Config.ack_timeout with
      | Some () -> ()
      | None ->
          stalled ~phase:"wait-finalized" (Ids.txn_to_string h.txn))
    slots

(* Read-only (and write-free) commit: the client is informed immediately;
   the Remove message then clears a read-only transaction's snapshot-queue
   entries on every replica it read (Alg. 1 lines 2-8).  An update
   transaction's reads left no entry to clear. *)
let commit_read_only h =
  let cl = h.cl in
  (* A write-free update transaction may have read a parked writer's data
     (read-only transactions never do): its response chains as well. *)
  if h.own.observed_parked <> [] then await_observed_parked h;
  h.home.coordinated_max <- Vclock.max h.home.coordinated_max h.own.vc;
  complete h ~ws:[];
  finish h.home h.txn;
  let keys = read_keys h in
  if h.ro && keys <> [] then
    send_nodes cl ~src:h.home.id ~dsts:(replica_nodes cl keys) (Message.Remove { txn = h.txn });
  true

let commit_update h ~chased =
  let cl = h.cl in
  let rs_keys = read_keys h in
  let ws_keys = List.map fst h.ws in
  let participants =
    List.sort_uniq Int.compare (h.home.id :: replica_nodes cl (rs_keys @ ws_keys))
  in
  (* Alg. 1 lines 18-24: the commit clock is the entry-wise maximum of
     the votes, folded into a private copy of this transaction's clock as
     they arrive; it is published (in the Decide) after the last
     mutation. *)
  let round =
    Ac.open_round h.home h.txn ~expect:(List.length participants) (Vclock.copy h.own.vc)
  in
  (* Readers whose Remove already chased this transaction must not be
     re-propagated into snapshot-queues. *)
  let prop =
    List.filter (fun (r, _) -> not (List.exists (Ids.equal_txn r) chased)) h.own.prop_set
  in
  Slots.Memo.add h.home.recent_ws ~txn:h.txn ~ws:ws_keys ~now:(now cl);
  send_nodes cl ~src:h.home.id ~dsts:participants
    (Message.Prepare
       { txn = h.txn; coord = h.home.id; vc = h.own.vc; rs = h.rs; ws = h.ws; propagated = prop });
  match Ac.await_round cl h.home h.txn round with
  | Some reason ->
      send_nodes cl ~src:h.home.id ~dsts:participants
        (Message.Decide { txn = h.txn; vc = h.own.vc; outcome = false });
      finish h.home h.txn;
      refuse h reason
  | None ->
      (* The vote wait suspended: the home node may have crashed under it, in
         which case this fiber holds a stale record and must not decide. *)
      if not (node_live cl h.home) then crashed h.home.id;
      (* Equalise the write replicas' entries of the merged clock so every
         commit queue orders this transaction identically. *)
      let commit_vc = round.acc in
      let write_nodes = replica_nodes cl ws_keys in
      let max_entry =
        List.fold_left (fun acc w -> Stdlib.max acc (Vclock.get commit_vc w)) 0 write_nodes
      in
      (* Mint a fresh, globally unique xactVN (Alg. 1 line 21 computes a
         maximum; we additionally guarantee uniqueness, see State.mint). *)
      let xact_vn = mint_xact_vn cl h.home ~at_least:max_entry in
      List.iter (fun w -> (Vclock.set_into commit_vc w xact_vn [@owned])) write_nodes;
      if cl.config.Config.durability then
        Ac.decide cl h.home h.txn commit_vc (SDecided { d_txn = h.txn; d_vc = commit_vc });
      let ack = open_acks cl h.home.ack_boxes h.txn ~from:write_nodes ~round:0 in
      let decide_at = now cl in
      send_nodes cl ~src:h.home.id ~dsts:participants
        (Message.Decide { txn = h.txn; vc = commit_vc; outcome = true });
      await_completion cl h.home ack
        ~msg:(Message.Decide { txn = h.txn; vc = commit_vc; outcome = true })
        ~phase:"external-commit ack" h.txn;
      Hashtbl.remove h.home.ack_boxes h.txn;
      if cl.config.Config.strict_order then begin
        (* wr-chaining: the parked writers we read from must externally commit
           before our own writes become reader-visible (and a fortiori before
           our client is informed) — otherwise a reader could observe our
           data, still serialize before the writer we depend on, and close a
           cycle. *)
        await_observed_parked h;
        (* Release the writer entries everywhere and wait for confirmation
           BEFORE informing the client: a reader that finds the entry parked
           can then always safely serialize before this transaction. *)
        let fin = open_acks cl h.home.ack_boxes h.txn ~from:write_nodes ~round:1 in
        send_nodes cl ~src:h.home.id ~dsts:write_nodes (Message.Finalize { txn = h.txn });
        await_completion cl h.home fin ~msg:(Message.Finalize { txn = h.txn })
          ~phase:"finalize ack" h.txn;
        Hashtbl.remove h.home.ack_boxes h.txn
      end;
      (* Completion protocol done: in-doubt queries no longer need this
         incarnation (and after a crash the restored decision will say so). *)
      Ac.completed h.home h.txn;
      finish h.home h.txn;
      h.home.coordinated_max <- Vclock.max h.home.coordinated_max commit_vc;
      if cl.ext.stats.collect_latencies then
        cl.ext.stats.latencies <- (h.began, decide_at, now cl) :: cl.ext.stats.latencies;
      complete h ~ws:ws_keys;
      true

let commit h =
  close h "commit";
  let chased = start_finishing h.home h.txn in
  if h.ws = [] then commit_read_only h else commit_update h ~chased

(* Voluntary abort before commit: nothing distributed is held yet except
   the snapshot-queue entries of a read-only transaction's reads, which the
   Remove message clears. *)
let abort h =
  client_abort h (fun () -> finish h.home h.txn);
  let keys = read_keys h in
  if h.ro && keys <> [] then
    send_nodes h.cl ~src:h.home.id ~dsts:(replica_nodes h.cl keys) (Message.Remove { txn = h.txn })
