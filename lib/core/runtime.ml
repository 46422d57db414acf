(** The protocol runtime: the scaffolding SSS and the three baselines share.

    Every store in this repository is a cluster of nodes on one simulated
    network, with an optional at-least-once transport, an optional
    write-ahead log per node, a history recorder and an observability sink.
    [Make] builds that substrate once for a protocol's message and node
    types; the protocol keeps only its own logic plus a few hooks: the
    message handler, what a crash wounds, and how a restarted node rebuilds
    its state from the log (docs/DURABILITY.md).  It also holds the client
    front end every store shares: the transaction handle and its guards,
    the read fan-out, the abort and the write-free commit.
    [Make(..).Commit] adds the atomic commitment SSS, 2PC and Walter
    share.

    Per-slot state that outlives a node record — liveness, the transaction
    id generator and the log — lives here, keyed by node id, so a crash
    swaps the protocol's volatile record and keeps the rest. *)

open Sss_sim
open Sss_data
open Sss_net
open Sss_consistency
module Storage = Sss_storage.Storage
module Obs = Sss_obs.Obs

(* Deterministic traversal of txn-keyed tables (snapshots, crash wounds). *)
let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> Ids.compare_txn a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] [@order_ok])

(* The same for int-keyed tables (keys, sites, sequence numbers). *)
let sorted_keys tbl = List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] [@order_ok])

(* The retention horizon of txn-keyed state: a commit decision past it
   retires once no longer driven, and a transaction set ([Idset.Txns])
   reads an id minted longer ago as a member.  No live protocol step
   consults an entry that old. *)
let retention_horizon = 10.0

(* ---- atomic commitment: the state SSS, 2PC and Walter share ---- *)

(** A coordinator's answer to an in-doubt query.  [driving] is [true]
    while the deciding incarnation still runs the completion protocol; a
    restarted coordinator reloads its decisions not driving. *)
type 'd verdict = Committed of { payload : 'd; driving : bool } | Aborted | Undecided

(* An open vote round; yes votes fold their payload into [acc] on arrival. *)
type 'v round = {
  expect : int;
  mutable votes : int;
  mutable voted_no : bool;
  acc : 'v;
  changed : Sim.Cond.t;
}

(* A commit decision's state byte in the coordinator's column ([Slots]):
   pending while its log record flushes, then driving while the deciding
   incarnation runs the completion protocol, then durable. *)
let pending = 1 and driving = 2 and durable = 3

(** A node's atomic-commitment state.  As coordinator: the vote rounds it
    runs, its decisions, and its termination watchdogs' query rendezvous.
    As participant: its prepared entries and its abort fence. *)
type ('v, 'd, 'p) commitment = {
  rounds : (Ids.txn, 'v round) Hashtbl.t;
  decisions : 'd Slots.t;
      (* by local id: a node decides only transactions it coordinates *)
  mutable retire_at : float;  (* the earliest virtual time of the next retirement pass *)
  outcomes : 'd verdict Rpc.Pending.t;
  prepared : (Ids.txn, 'p) Hashtbl.t;  (* yes votes whose outcome is not yet settled here *)
  mutable fence : Idset.Txns.t;
      (* abort decisions that may have overtaken their own Prepare *)
}

let commitment node =
  {
    rounds = Hashtbl.create 16;
    decisions = Slots.create ~node;
    retire_at = retention_horizon;
    outcomes = Rpc.Pending.create ();
    prepared = Hashtbl.create 16;
    fence = Idset.Txns.create ~horizon:retention_horizon;
  }

(** The commitment's part of a checkpoint, in deterministic order: the
    prepared entries, a frozen view of the decision column (pending slots
    included; docs/DURABILITY.md), and the fence. *)
type ('d, 'p) image = { entries : (Ids.txn * 'p) list; decided : 'd Slots.image; fenced : Idset.Txns.t }

(** [f d acc] over the decisions a checkpoint prices: those driving or
    durable at the snapshot.  A pending one rides in the image unpriced:
    its record is in the log's flush, which prices it. *)
let fold_priced f img acc =
  Slots.fold (fun _ d _ st acc -> if st = pending then acc else f d acc) img.decided acc

(* A completion-ack box: the acks still awaited, one entry per expected
   ack, by sender.  [all_in] fills once none is missing; an ack of another
   round than [ack_round], or one its sender owes no more, counts for
   nothing. *)
type acks = { mutable missing : Ids.node list; ack_round : int; all_in : unit Sim.Ivar.t }

module type PROTOCOL = sig
  type msg
  type node
  type logrec
  type snap
  type ext  (** cluster-wide state beyond the common fields *)

  val system : string
  (** The name {!Rpc.Crashed} and {!Rpc.Stalled} carry. *)

  val priority : msg -> int
  val kind_of : msg -> string

  val tracked : int -> msg -> msg
  (** The transport envelope around a payload, keyed by its token. *)

  val receipt : int -> msg
  (** The transport's delivery receipt for a token. *)

  val id : node -> Ids.node

  val make_node : Sim.t -> Config.t -> Replication.t -> Ids.node -> node
  (** A pristine node record, every replicated key at genesis: used at
      boot and again for the fresh record a crash swaps in. *)

  val record_bytes : Config.t -> logrec -> int
  val snapshot_bytes : Config.t -> snap -> int
end

module Make (P : PROTOCOL) = struct
  type t = {
    sim : Sim.t;
    config : Config.t;
    repl : Replication.t;
    net : P.msg Network.t;
    rel : P.msg Reliable.t;
        (* the at-least-once transport; used only under
           [config.fault_tolerance] *)
    nodes : P.node array;  (* the live record per slot; a crash replaces it *)
    history : History.t;
    obs : Obs.t option;
        (* [None] unless [config.observe]: a disabled run executes no
           observation code *)
    mutable down : Ids.node list;  (* slots between a crash and the end of recovery *)
    gens : Ids.Gen.t array;
        (* transaction ids name client requests, not node state: a restarted
           node must never re-mint an id its previous incarnation issued *)
    wals : (P.logrec, P.snap) Storage.t option array;
        (* [Some] iff [config.durability]; the device is the durable medium
           and survives crashes *)
    hooks : hooks;
    ext : P.ext;
  }

  and hooks = {
    handler : t -> P.node -> src:Ids.node -> P.msg -> unit;
    wound : t -> P.node -> exn -> unit;
        (* a crash: fail or wake every waiter parked on the dead record *)
    snapshot : P.node -> P.snap;  (* an immutable, deterministically ordered checkpoint image *)
    load : t -> P.node -> P.snap -> unit;  (* restart: install the checkpoint *)
    replay : t -> P.node -> P.logrec -> unit;  (* restart: redo one record *)
    recover : t -> P.node -> unit;
        (* restart, after replay: rebuild the volatile side and call
           {!rejoin} where the protocol's order of events puts it *)
  }

  let create ?size_of ~hooks ~ext sim (config : Config.t) =
    let n = config.nodes in
    let repl =
      Replication.create ~nodes:n ~degree:config.replication_degree
        ~total_keys:config.total_keys
    in
    let rng = Prng.create ~seed:config.seed in
    let net = Network.create ?size_of sim rng ~nodes:n ~config:config.network in
    let nodes = Array.init n (fun id -> P.make_node sim config repl id) in
    let rel =
      Reliable.create sim net
        ~retry:
          {
            Reliable.initial = Config.retry_initial;
            max = Config.retry_max;
            limit = Config.retry_limit;
          }
    in
    let obs =
      if config.observe then Some (Obs.create ()) else None
    in
    (match obs with
    | Some o -> Network.set_observer net (Some { Network.obs = o; kind_of = P.kind_of })
    | None -> ());
    Reliable.set_obs rel obs;
    let t =
      {
        sim;
        config;
        repl;
        net;
        rel;
        nodes;
        history = History.create ~enabled:config.record_history ();
        obs;
        down = [];
        gens = Array.init n Ids.Gen.create;
        wals = Array.make n None;
        hooks;
        ext;
      }
    in
    Array.iter
      (fun node ->
        Network.set_handler t.net (P.id node) (fun ~src m -> t.hooks.handler t node ~src m))
      nodes;
    if config.durability then
      for id = 0 to n - 1 do
        let dev =
          Iodev.create sim ~op_latency:Config.fsync_latency ~bandwidth:Config.disk_bandwidth
        in
        (* The snapshot closure reads through [t.nodes]: checkpoints must
           cover the node's current incarnation, not the boot one. *)
        let w =
          Storage.create sim dev ~record_bytes:(P.record_bytes config)
            ~snapshot:(fun () -> t.hooks.snapshot t.nodes.(id))
            ~snapshot_bytes:(P.snapshot_bytes config) ?obs ()
        in
        t.wals.(id) <- Some w;
        Storage.start_checkpoints w ~interval:config.checkpoint_interval
      done;
    t

  let now t = Sim.now t.sim

  let record t event = History.record t.history ~at:(now t) event

  let crashed id = Rpc.crashed ~system:P.system ~node:id

  let stalled ~phase ?(bound = "ack_timeout") d = Rpc.stalled ~system:P.system ~phase ~bound d

  (* ---- transaction lifecycle: history plus observation ---- *)

  (* External commit: the client learns of success now. *)
  let committed t ~txn ~ro ~began ~ws =
    record t (History.Commit { txn; ws });
    match t.obs with
    | Some o ->
        Obs.incr o (if ro then "txn.commit.ro" else "txn.commit.update");
        Obs.observe o (if ro then "lat.txn.ro" else "lat.txn.update") (Sim.now t.sim -. began)
    | None -> ()

  (* Why a transaction aborted; each reason has its own [txn.abort.*]
     counter, spelled out so observing an abort builds no string. *)
  type reason = Client_abort | Vote_false | Vote_timeout | Conflict | Ro_rounds

  let reason_counter = function
    | Client_abort -> "txn.abort.client"
    | Vote_false -> "txn.abort.vote-false"
    | Vote_timeout -> "txn.abort.vote-timeout"
    | Conflict -> "txn.abort.conflict"
    | Ro_rounds -> "txn.abort.ro-rounds"

  let aborted t ~txn ~reason =
    record t (History.Abort { txn });
    match t.obs with Some o -> Obs.incr o (reason_counter reason) | None -> ()

  (* Record the virtual time elapsed since [since] in a latency histogram. *)
  let observe_since t name ~since =
    match t.obs with Some o -> Obs.observe o name (Sim.now t.sim -. since) | None -> ()

  (* ---- messaging ---- *)

  let send t ~src ~dst payload =
    let prio = if t.config.priority_network then P.priority payload else 100 in
    if t.config.fault_tolerance then
      Reliable.send t.rel ~prio ~src ~dst (fun token -> P.tracked token payload)
    else Network.send t.net ~prio ~src ~dst payload

  (* [payload] to each of [dsts], in list order. *)
  let send_nodes t ~src ~dsts payload = List.iter (fun dst -> send t ~src ~dst payload) dsts

  (* The receiving side of a tracked envelope: receipt every copy (receipts
     can be lost), and [true] only for the first, so protocol handlers never
     see re-deliveries. *)
  let receive t ~me ~src token =
    let r = P.receipt token in
    Network.send t.net ~prio:(P.priority r) ~src:me ~dst:src r;
    Reliable.receive t.rel token

  (* A read reply.  Under the fault-tolerant transport the request and its
     answer are retried below, so the wait only needs the [ack_timeout]
     backstop; the plain wait keeps the healthy path free of timeouts. *)
  let await_read ?(phase = "read") t slot ~key ~txn =
    if t.config.fault_tolerance then
      match Rpc.Pending.await_timeout t.sim slot ~timeout:Config.ack_timeout with
      | Some r -> r
      | None -> stalled ~phase (Printf.sprintf "key %d in %s" key (Ids.txn_to_string txn))
    else Rpc.Pending.await t.sim slot

  (* Nodes storing any key of [keys], deduplicated, ascending. *)
  let replica_nodes t keys =
    List.sort_uniq Int.compare (List.concat_map (fun k -> Replication.replicas t.repl k) keys)

  let is_primary t node key =
    match Replication.replicas t.repl key with first :: _ -> first = node | [] -> false

  (* ---- the transaction front end ----

     The client side every store shares: the handle and its lifecycle
     guards, the write buffer with read-your-writes, the read fan-out, the
     client abort and the write-free commit.  A protocol keeps its own
     per-transaction state in [own]. *)

  type 'o handle = {
    cl : t;
    home : P.node;
    txn : Ids.txn;
    ro : bool;
    began : float;
    mutable rs : (Ids.key * Ids.txn) list;
        (* the versions read, as (key, writer), for protocols that validate *)
    mutable ws : (Ids.key * string) list;  (* the write buffer *)
    mutable finished : bool;
    own : 'o;
  }

  (* Mint the next id at a live home, record the begin, and build the
     handle around [own home id]. *)
  let start t ~node ~read_only own =
    if List.mem node t.down then crashed node;
    let txn = Ids.Gen.next t.gens.(node) in
    let ro = read_only in
    record t (History.Begin { txn; ro; node });
    (match t.obs with
    | Some o -> Obs.incr o (if ro then "txn.begin.ro" else "txn.begin.update")
    | None -> ());
    let home = t.nodes.(node) in
    { cl = t; home; txn; ro; began = now t; rs = []; ws = []; finished = false;
      own = own home txn }

  let txn_id h = h.txn

  let check h op =
    if h.finished then invalid_arg (P.system ^ ": " ^ op ^ " on a finished transaction")

  (* Commit and abort end the handle. *)
  let close h op =
    check h op;
    h.finished <- true

  (* Read-your-writes from the buffer, else the protocol's [remote_read]. *)
  let read h key remote_read =
    check h "read";
    match List.assoc_opt key h.ws with Some v -> v | None -> remote_read h key

  let write h key value =
    check h "write";
    if h.ro then invalid_arg (P.system ^ ": write in a read-only transaction");
    h.ws <- (key, value) :: List.remove_assoc key h.ws

  (* One read round trip: a fresh slot in the home's [pending] table,
     [msg req] to every replica of [key] (the fastest answer wins), then
     the reply. *)
  let fetch ?phase h pending key msg =
    let req, slot = Rpc.Pending.fresh pending in
    send_nodes h.cl ~src:(P.id h.home) ~dsts:(Replication.replicas h.cl.repl key) (msg req);
    await_read ?phase h.cl slot ~key ~txn:h.txn

  (* Note a read of [writer]'s version of [key]: once in the read set, and
     in the history. *)
  let observed h key writer =
    if not (List.exists (fun (k, w) -> Int.equal k key && Ids.equal_txn w writer) h.rs) then
      h.rs <- (key, writer) :: h.rs;
    record h.cl (History.Read { txn = h.txn; key; writer })

  (* External commit of the handle's transaction. *)
  let complete h ~ws = committed h.cl ~txn:h.txn ~ro:h.ro ~began:h.began ~ws

  (* A transaction with nothing to validate or install commits with no
     messages. *)
  let commit_write_free h =
    complete h ~ws:[];
    true

  let refuse h reason =
    aborted h.cl ~txn:h.txn ~reason;
    false

  (* The client gives up: [cleanup] releases what the transaction holds
     before the abort is recorded. *)
  let client_abort h cleanup =
    close h "abort";
    cleanup ();
    aborted h.cl ~txn:h.txn ~reason:Client_abort

  let abort h = client_abort h ignore

  (* ---- the completion-ack rendezvous ----

     A coordinator that answers its client only once the write replicas
     confirmed opens a box per transaction listing the acks it awaits, one
     entry per expected ack, by sender.  An ack settles one of its
     sender's entries; a surplus ack, or one of another round, is
     ignored. *)

  let open_acks t boxes txn ~from ~round =
    let b = { missing = from; ack_round = round; all_in = Sim.Ivar.create () } in
    if List.is_empty from then Sim.Ivar.fill t.sim b.all_in ();
    Hashtbl.replace boxes txn b;
    b

  (* [l] without its first [x]. *)
  let rec drop_one x = function
    | [] -> []
    | y :: l -> if Int.equal x y then l else y :: drop_one x l

  let ack_arrived t boxes txn ~src ~round =
    match Hashtbl.find_opt boxes txn with
    | Some b when b.ack_round = round && List.exists (Int.equal src) b.missing ->
        b.missing <- drop_one src b.missing;
        if List.is_empty b.missing && not (Sim.Ivar.is_filled b.all_in) then
          Sim.Ivar.fill t.sim b.all_in ()
    | Some _ | None -> ()

  (* [true] once every ack of the box's round arrived within [timeout]. *)
  let acks_within t b ~timeout = Option.is_some (Sim.Ivar.read_timeout t.sim b.all_in ~timeout)

  (* A crash: wake the coordinator fibers parked on the dead record's boxes;
     they observe the record swap and raise. *)
  let fill_acks t boxes =
    List.iter
      (fun (_, b) -> if not (Sim.Ivar.is_filled b.all_in) then Sim.Ivar.fill t.sim b.all_in ())
      (sorted_bindings boxes)

  (* ---- write-ahead log ---- *)

  let log t node r =
    match t.wals.(P.id node) with Some w -> Some (Storage.append w r) | None -> None

  (* Wait for [lsn] to reach the disk; [true] without suspending when not in
     durability mode.  The device is serial FIFO, so a durable [lsn] implies
     every earlier record is durable too. *)
  let log_sync t node lsn =
    match (t.wals.(P.id node), lsn) with Some w, Some l -> Storage.await w l | _ -> true

  (* A fiber that suspended may resume on a node record that crashed in the
     meantime (the slot then holds the replacement).  Everything externally
     visible — sends, log appends — must re-check this in the event that
     performs it. *)
  let node_live t node = t.nodes.(P.id node) == node

  (* Node [id]'s last completed checkpoint image, if any. *)
  let checkpoint t id = Option.bind t.wals.(id) Storage.checkpoint

  (* Wait for the box of [home]'s transaction [txn] to fill.  A crash of
     [home] fills it too ({!fill_acks}), so this raises [Crashed] when the
     record was swapped meanwhile, and [Stalled] after [ack_timeout]. *)
  let await_acks t home b ~phase txn =
    if not (acks_within t b ~timeout:Config.ack_timeout) then
      stalled ~phase (Ids.txn_to_string txn);
    if not (node_live t home) then crashed (P.id home)

  (* The completion wait.  Under durability a receipt is not "acted on": a
     participant can receipt [msg], crash, and recover with no trace of it.
     So every 4 x [retry_max] [msg] goes again to the senders still
     missing, until [ack_timeout]; handlers are idempotent and a surplus
     ack counts for nothing.  Without durability it is {!await_acks} alone,
     with no timer event added. *)
  let await_completion t home b ~msg ~phase txn =
    if t.config.durability then begin
      let deadline = now t +. Config.ack_timeout in
      while not (acks_within t b ~timeout:(4. *. Config.retry_max)) do
        if now t >= deadline then stalled ~phase (Ids.txn_to_string txn);
        send_nodes t ~src:(P.id home) ~dsts:(List.sort_uniq Int.compare b.missing) msg
      done
    end;
    await_acks t home b ~phase txn

  (* [key]'s handle at node [id]: its position in the node's replica key
     array, which indexes the store's columns.  A key the node does not
     replicate is a caller bug. *)
  let[@hot] key_handle t id key =
    let h = Replication.handle (Replication.keys_at t.repl id) key in
    if h < 0 then (invalid_arg (P.system ^ ": unknown key") [@alloc_ok]) else h

  (* ---- crash & restart (durability mode; docs/DURABILITY.md) ---- *)

  (* Discard the node's volatile state: without durability a crash is the
     NIC fault alone.  The wound hook runs on the dead record; the fresh one
     stays down until its restart replays the log. *)
  let crash_node t id =
    if t.config.durability then begin
      let old = t.nodes.(id) in
      t.down <- id :: t.down;
      Option.iter Storage.crash t.wals.(id);
      t.hooks.wound t old (Rpc.Crashed { system = P.system; node = id });
      let fresh = P.make_node t.sim t.config t.repl id in
      t.nodes.(id) <- fresh;
      Network.set_handler t.net id (fun ~src m -> t.hooks.handler t fresh ~src m)
    end

  (* Redo recovery: read the checkpoint and the durable tail back, install
     the one and replay the other, then hand over to the protocol's
     [recover] hook, which calls {!rejoin}. *)
  let restart_node t id =
    match t.wals.(id) with
    | None -> Network.recover t.net id
    | Some w ->
        let node = t.nodes.(id) in
        Storage.recover w (fun ~recovered ~replay ->
            Sim.run_fiber (fun () ->
                Option.iter (t.hooks.load t node) recovered;
                List.iter (t.hooks.replay t node) replay;
                t.hooks.recover t node))

  (* Back in service: accept transactions, reconnect the NIC, run
     [rejoined] (work that needs the network but must precede the next
     checkpoint), and restart the checkpoint timer. *)
  let rejoin ?(rejoined = ignore) t id =
    t.down <- List.filter (( <> ) id) t.down;
    Network.recover t.net id;
    rejoined ();
    Option.iter
      (fun w -> Storage.start_checkpoints w ~interval:t.config.checkpoint_interval)
      t.wals.(id)

  (* One residue line for [n] leftover [what]s; none when [n] is 0. *)
  let residue node what n =
    if n > 0 then [ Printf.sprintf "node %d: %d %s" (P.id node) n what ] else []

  (* ---- atomic commitment (docs/DURABILITY.md) ----

     The vote round, the decision column, the in-doubt answer and the
     termination watchdog, for a protocol whose nodes carry a
     {!commitment}; and the participant's prepared entries from the yes
     vote to their settlement, with the fence, the checkpoint part and the
     restart.  [merge acc v] folds a yes vote's payload into the round's
     accumulator; [query] and [outcome] build the protocol's in-doubt
     request and its answer; [coord] names an entry's coordinator and
     [held] the (exclusive, shared) keys it locks while in doubt. *)
  module Commit (A : sig
    type vote
    type decision
    type prep

    val state : P.node -> (vote, decision, prep) commitment
    val merge : vote -> vote -> unit
    val query : req:int -> Ids.txn -> P.msg
    val outcome : req:int -> decision verdict -> P.msg
    val locks : P.node -> Locks.t
    val coord : prep -> Ids.node
    val held : prep -> Ids.key list * Ids.key list

    val copy : prep -> prep
    (** A private copy, for an image whose original still changes. *)
  end) =
  struct
    (* Coordinator: register the round before the Prepares leave. *)
    let open_round node txn ~expect acc =
      let r = { expect; votes = 0; voted_no = false; acc; changed = Sim.Cond.create () } in
      Hashtbl.replace (A.state node).rounds txn r;
      r

    (* Wait for every vote, the first no, or [vote_timeout]; [None] means
       all voted yes, otherwise the abort reason. *)
    let await_round t node txn r =
      let complete () = r.voted_no || r.votes >= r.expect in
      ignore
        (Sim.Cond.await_timeout t.sim r.changed ~timeout:Config.vote_timeout complete
          : bool);
      Hashtbl.remove (A.state node).rounds txn;
      if r.voted_no then Some Vote_false
      else if r.votes >= r.expect then None
      else Some Vote_timeout

    let vote_arrived t node txn ~ok v =
      match Hashtbl.find_opt (A.state node).rounds txn with
      | Some r ->
          r.votes <- r.votes + 1;
          if ok then A.merge r.acc v else r.voted_no <- true;
          Sim.Cond.broadcast t.sim r.changed
      | None -> ()  (* the coordinator timed out and moved on *)

    (* Durable decision point (durability mode): the decision is logged and
       flushed before any participant can learn it; until then an in-doubt
       query reads it as undecided, since it could still be lost with this
       node.  Raises [Crashed] if the node crashed under the flush. *)
    let decide t node txn payload record =
      let ac = A.state node and began = now t in
      Slots.set ac.decisions txn payload ~st:pending ~now:began;
      (* a retirement pass, at most one per quarter horizon: the durable
         decisions decided more than [retention_horizon] ago go, pending
         and driving ones stay whatever their age *)
      if began >= ac.retire_at then begin
        Slots.retain ac.decisions ~move:Fun.id ~keep:(fun d i ->
            Slots.state d i <> durable || Slots.time d i >= began -. retention_horizon);
        ac.retire_at <- began +. (retention_horizon /. 4.)
      end;
      let lsn = log t node record in
      if (not (log_sync t node lsn)) || not (node_live t node) then crashed (P.id node);
      Slots.shift ac.decisions txn ~from:pending driving;
      observe_since t "lat.commit.durable" ~since:began

    (* The coordinator finished driving [txn]'s completion. *)
    let completed node txn = Slots.shift (A.state node).decisions txn ~from:driving durable

    (* A decision replayed from the log at restart: durable, no longer
       driven, and stamped now, which is no earlier than its decide time. *)
    let restore t node txn payload =
      Slots.set (A.state node).decisions txn payload ~st:durable ~now:(now t)

    (* Durable means committed; a flush in flight or a vote round still
       open means undecided; no trace means presumed abort — never decided,
       or retired past the retention horizon, by which time no participant
       still holds the transaction in doubt. *)
    let verdict node txn =
      let ac = A.state node in
      let i = Slots.find ac.decisions txn in
      let st = if i < 0 then 0 else Slots.state ac.decisions i in
      if st = durable || st = driving then
        Committed { payload = Slots.value ac.decisions i; driving = st = driving }
      else if st = pending || Hashtbl.mem ac.rounds txn then Undecided
      else Aborted

    let answer t node ~src ~req txn =
      send t ~src:(P.id node) ~dst:src (A.outcome ~req (verdict node txn))

    let outcome_arrived t node ~req v = Rpc.Pending.resolve t.sim (A.state node).outcomes req v

    (* ---- participant: the prepared entries ---- *)

    (* Whether [txn] is held in doubt here: prepared, not yet settled. *)
    let in_doubt node txn = Hashtbl.mem (A.state node).prepared txn

    (* A fenced Prepare votes no: its abort decision overtook it. *)
    let fenced node txn = Idset.Txns.mem (A.state node).fence txn

    let fence t node txn = Idset.Txns.add (A.state node).fence txn ~now:(now t)

    (* A yes vote: enter [p] and force its log [record] before the vote
       leaves, since after a crash this node must still be able to honour
       a commit decision; under durability [watch] the entry from now on.
       [true] once the record is on disk (at once without durability). *)
    let prepare t node txn p record ~watch =
      Hashtbl.replace (A.state node).prepared txn p;
      let lsn = log t node record in
      if t.config.durability then watch t node txn p ~linger:true;
      log_sync t node lsn

    (* Termination watchdog for a yes vote whose outcome this participant
       may never hear — the coordinator crashed before deciding, or this
       node restarted with the prepare on disk.  [linger] first waits out
       a healthy decide round-trip (the watchdog spawned at vote time).
       While the entry is in doubt, ask its coordinator once per attempt:
       [on_committed] returns whether to keep watching, undecided or
       unanswered attempts back off, and [retry_limit] of them stall the
       run.  A crash of this node ends the watch: its restart spawns a new
       one. *)
    let watch t node txn p ~linger ~on_committed ~on_aborted =
      let outcomes = (A.state node).outcomes in
      let rec loop attempt =
        if node_live t node && in_doubt node txn then
          if attempt >= Config.retry_limit then
            stalled ~phase:"in-doubt" ~bound:"retry_limit attempts" (Ids.txn_to_string txn)
          else begin
            let req, slot = Rpc.Pending.fresh outcomes in
            send t ~src:(P.id node) ~dst:(A.coord p) (A.query ~req txn);
            match Rpc.Pending.await_timeout t.sim slot ~timeout:Config.retry_max with
            | Some (Committed { payload; driving }) ->
                if on_committed payload ~driving then begin
                  Sim.sleep t.sim (2. *. Config.retry_max);
                  loop 0
                end
            | Some Aborted -> on_aborted ()
            | Some Undecided | None ->
                Rpc.Pending.forget outcomes req;
                Sim.sleep t.sim Config.retry_initial;
                loop (attempt + 1)
          end
      in
      Sim.spawn t.sim (fun () ->
          try
            if linger then Sim.sleep t.sim (2. *. Config.retry_max);
            loop 0
          with Rpc.Crashed _ -> ())

    (* The commitment's part of a checkpoint, and its reload at restart. *)
    let image node =
      let ac = A.state node in
      {
        entries = List.map (fun (txn, p) -> (txn, A.copy p)) (sorted_bindings ac.prepared);
        decided = Slots.freeze ac.decisions;
        fenced = Idset.Txns.copy ac.fence;
      }

    let load _ node img =
      let ac = A.state node in
      List.iter (fun (txn, p) -> Hashtbl.replace ac.prepared txn (A.copy p)) img.entries;
      (* every imaged decision reloads durable, one still flushing at the
         snapshot included (docs/DURABILITY.md) *)
      Slots.thaw ac.decisions img.decided;
      Slots.fold
        (fun local _ _ st () ->
          if st <> durable then
            Slots.shift ac.decisions { Ids.node = P.id node; local } ~from:st durable)
        img.decided ();
      ac.fence <- Idset.Txns.copy img.fenced

    (* Restart, after replay.  The in-doubt entries held their locks when
       the node went down: re-take them before the node admits a new
       Prepare (they co-held them before the crash, so acquisition is
       immediate).  Then {!rejoin}, run [on_rejoin], and per entry, in txn
       order, [resume] its interrupted lifecycle and [watch] it until the
       coordinator's verdict settles it. *)
    let recover ?(on_rejoin = ignore) ?(resume = fun _ _ -> ()) t node ~watch =
      let entries = sorted_bindings (A.state node).prepared in
      List.iter
        (fun (txn, p) ->
          let exclusive, shared = A.held p in
          ignore
            (Locks.acquire_all (A.locks node) txn ~exclusive ~shared ~timeout:Config.lock_timeout
              : bool))
        entries;
      rejoin t (P.id node);
      on_rejoin ();
      List.iter
        (fun (txn, p) ->
          resume txn p;
          watch t node txn p ~linger:false)
        entries

    (* The quiescence residue of entries no outcome settled. *)
    let lingering node = residue node "prepared linger" (Hashtbl.length (A.state node).prepared)

    (* A crash: fail the watchdogs' queries.  The dead record's vote-round
       waiters are left parked: their predicate does not look at liveness,
       so [vote_timeout] and the coordinator's stale-record check settle
       them. *)
    let wound t node e = Rpc.Pending.poison_all t.sim (A.state node).outcomes e
  end

  (* ---- accessors ---- *)

  let history t = t.history

  let obs t = t.obs

  let network t = t.net

  let repl t = t.repl

  let local_keys t n = Replication.keys_at t.repl n

  (* The sum of [words node] over the cluster: a store gauge. *)
  let sum_nodes t words = Array.fold_left (fun acc n -> acc + words n) 0 t.nodes

  (* A quiescence report from each node's residue lines, in node order. *)
  let residue_report t residues =
    match List.concat_map residues (Array.to_list t.nodes) with
    | [] -> Ok ()
    | ps -> Error (String.concat "; " ps)
end

(** The surface every store offers its harnesses — the three baselines
    through [Make] and their own client code, SSS through {!Kv}. *)
module type STORE = sig
  type cluster
  type handle
  type msg  (** the wire protocol (abstract; inspect with [message_kind]) *)

  val create : Sim.t -> Config.t -> cluster

  val begin_txn : cluster -> node:Ids.node -> read_only:bool -> handle
  (** @raise Sss_net.Rpc.Crashed while the home node is down. *)

  val read : handle -> Ids.key -> string
  val write : handle -> Ids.key -> string -> unit

  val commit : handle -> bool
  (** [true] once the client may consider the transaction committed. *)

  val abort : handle -> unit
  val txn_id : handle -> Ids.txn
  val history : cluster -> History.t

  val obs : cluster -> Obs.t option
  (** The observability sink — [Some] iff [Config.observe] was set at
      creation (docs/OBSERVABILITY.md). *)

  val repl : cluster -> Replication.t

  val local_keys : cluster -> Ids.node -> Ids.key array
  (** Keys replicated at a node (for the locality workload). *)

  val network : cluster -> msg Network.t
  (** The cluster's network, for attaching fault plans ([Sss_chaos.Chaos]). *)

  val message_kind : msg -> string
  (** Stable lowercase kind name ("prepare", "vote", …) for per-message-type
      fault rules; transport wrappers report their payload's kind. *)

  val quiescent : cluster -> (unit, string) result
  (** With no transaction in flight: [Error] names any residue (locks,
      prepared or buffered state) a protocol leak left behind. *)

  val store_words : cluster -> int
  (** Resident words of every node's store, under the heap model of
      [Sss_data.Mvstore.mem_words] — the cross-protocol storage-footprint
      gauge of the saturation figure. *)

  val store_repr : cluster -> Ids.node -> Obj.t
  (** A node's store, for tests that weigh it with [Obj.reachable_words]. *)

  (** {1 Crash & recovery} — durability mode (docs/DURABILITY.md)

      Wired to {!Sss_chaos.Chaos.install}'s [on_crash]/[on_restart] hooks.
      With [Config.durability = false] the NIC fault is all there is:
      [crash_node] does nothing and [restart_node] reconnects the NIC. *)

  val crash_node : cluster -> Ids.node -> unit
  (** Discard the node's volatile state: wound every parked waiter with
      {!Sss_net.Rpc.Crashed}, lose the unflushed log tail, and swap in a
      pristine node record (down until restarted).  Bare callback — safe
      from {!Sss_chaos.Chaos} event position. *)

  val restart_node : cluster -> Ids.node -> unit
  (** Redo recovery: reload the last checkpoint, replay the durable log
      tail, rebuild the protocol's volatile state (locks of in-doubt
      transactions, watchdogs that settle them), and reconnect the NIC. *)
end
