(* Fail-stop-recover chaos: with [Config.durability] on, a node crash
   discards volatile state (Chaos [on_crash] -> crash_node) and the restart
   replays the write-ahead log (on_restart -> restart_node).  Every system
   must come back to a checker-accepted history — including no torn
   commits — across a seed sweep, with the crash landing mid-workload where
   group commits are continuously in flight.  SSS read-only transactions
   must still never abort.  And with durability OFF the hooks must change
   nothing: the off trajectory is byte-identical whether or not the crash
   hooks are wired. *)

open Sss_sim
open Sss_consistency
module Chaos = Sss_chaos.Chaos
module Store = Sss_experiments.Store
module Spec = Sss_experiments.Spec

(* crash node 2 mid-window; recovery gets ~a third of the run to finish
   and prove liveness afterwards *)
let crash_plan ~seed = Chaos.crash_restart ~seed ~node:2 ~at:0.015 ~restart_at:0.019

let durable_config ~degree ~seed =
  {
    Sss_kv.Config.default with
    nodes = 4;
    replication_degree = degree;
    total_keys = 24;
    seed;
    fault_tolerance = true;
    durability = true;
  }

(* A durable run of [system] under [plan]. *)
let durable_spec ?(durability = true) ?(observe = false) system ~plan ~seed =
  let config = durable_config ~degree:(Store.paper_degree system) ~seed in
  Spec.make ~plan ~clients:2 ~duration:0.03 system { config with durability; observe }

(* Its spec and the store's run, whose [chaos] is what the plan injected. *)
let run ?durability ?observe system ~plan ~seed =
  let spec = durable_spec ?durability ?observe system ~plan ~seed in
  (spec, Spec.run spec)

let systems = Store.[ Sss; Twopc; Walter; Rococo ]

(* Fail, naming the run's spec. *)
let failf spec fmt =
  Printf.ksprintf (fun msg -> Alcotest.failf "%s -- %s" msg (Spec.to_string spec)) fmt

(* Every property the run's system promises holds, and it ended quiescent. *)
let assert_verdicts spec (o : Store.run) =
  List.iter
    (function
      | check, Store.Fail msg -> failf spec "%s: %s" check msg
      | _, (Pass | Not_promised) -> ())
    (Store.verdicts o.store.system o.store.history ~quiescent:(o.store.quiescent ()))

let assert_recovered spec (o : Store.run) =
  let stats = Option.get o.chaos in
  if stats.Chaos.crashes <> 1 || stats.Chaos.restarts <> 1 then
    failf spec "crash/restart did not fire";
  assert_verdicts spec o;
  (* liveness: work committed after the restart *)
  let after_restart =
    List.exists
      (fun (s : History.stamped) ->
        match s.History.event with
        | History.Commit _ -> s.History.at > 0.019
        | _ -> false)
      (History.events o.store.history)
  in
  if not after_restart then failf spec "nothing committed after recovery"

(* ---------- the sweep: every system, 10 seeds, crash mid-run ---------- *)

let test_crash_recovery_sweep () =
  let total = ref 0 in
  for seed = 1 to 10 do
    List.iter
      (fun system ->
        let spec, o = run system ~plan:(crash_plan ~seed) ~seed in
        total := !total + o.result.committed;
        assert_recovered spec o)
      systems
  done;
  if !total = 0 then Alcotest.fail "durable sweep committed nothing"

(* mid-group-commit precision: land crashes on a dense grid around the
   default fsync latency so some hit with flushes in flight *)
let test_sss_crash_grid () =
  List.iteri
    (fun i at ->
      let seed = 100 + i in
      let plan = Chaos.crash_restart ~seed ~node:1 ~at ~restart_at:(at +. 0.004) in
      let spec, o = run Store.Sss ~plan ~seed in
      if (Option.get o.chaos).Chaos.crashes <> 1 then failf spec "grid %d: crash did not fire" i;
      assert_verdicts spec o)
    [ 0.0100; 0.01002; 0.01004; 0.01006; 0.01008; 0.0101 ]

(* SSS read-only abort-freedom survives durability + crash: no RO abort
   events, and RO work actually committed *)
let test_sss_ro_abort_free_durable () =
  for seed = 1 to 10 do
    let spec, o = run Store.Sss ~plan:(crash_plan ~seed) ~seed in
    let ro_txns = Hashtbl.create 64 in
    let ro_aborts = ref 0 and ro_commits = ref 0 in
    List.iter
      (fun (s : History.stamped) ->
        match s.History.event with
        | History.Begin { txn; ro = true; _ } -> Hashtbl.replace ro_txns txn ()
        | History.Abort { txn } -> if Hashtbl.mem ro_txns txn then incr ro_aborts
        | History.Commit { txn; _ } -> if Hashtbl.mem ro_txns txn then incr ro_commits
        | _ -> ())
      (History.events o.store.history);
    if !ro_aborts > 0 then failf spec "%d RO aborts" !ro_aborts;
    if !ro_commits = 0 then failf spec "no RO transaction committed"
  done

(* ---------- determinism: a durable crashy run replays byte-identically ---------- *)

let test_deterministic_replay () =
  List.iter
    (fun system ->
      let name = Store.system_name system in
      let seed = 7 in
      let spec, a = run system ~plan:(crash_plan ~seed) ~seed in
      let _, b = run system ~plan:(crash_plan ~seed) ~seed in
      Alcotest.(check int) (name ^ ": events processed") a.des_events b.des_events;
      if History.events a.store.history <> History.events b.store.history then
        failf spec "durable histories diverge between identical runs")
    systems

(* ---------- the recovery golden covers the atomic-commitment paths ----------

   test/golden/recovery_smoke.txt pins each system's durable crash run
   (this file's plan at seed 7).  Rerun it observed — observation is
   passive, so the line must match byte-for-byte — and require that the
   in-doubt termination protocol actually ran: a golden that never sends
   an in-doubt query could not catch a regression in the vote round, the
   decision table or the watchdog. *)

let test_golden_covers_indoubt () =
  let fixture =
    if Sys.file_exists "golden/recovery_smoke.txt" then "golden/recovery_smoke.txt"
    else "test/golden/recovery_smoke.txt"
  in
  let golden = String.split_on_char '\n' (In_channel.with_open_text fixture In_channel.input_all) in
  List.iter
    (fun (system, query_kind) ->
      let seed = 7 in
      let spec, o = run ~observe:true system ~plan:(crash_plan ~seed) ~seed in
      let line =
        Printf.sprintf "%s durable des_events %d committed %d history_md5 %s"
          (String.lowercase_ascii (Store.system_name system))
          o.des_events o.result.committed
          (Sss_experiments.Experiments.history_md5 o.store.history)
      in
      if not (List.mem line golden) then
        failf spec "observed run %S is not in the recovery golden" line;
      let queries =
        match o.store.obs with
        | Some obs -> Sss_obs.Obs.counter obs ("msg.sent." ^ query_kind)
        | None -> 0
      in
      if queries = 0 then
        failf spec "the golden run sent no in-doubt query")
    Store.[ (Sss, "dquery"); (Twopc, "query"); (Walter, "query") ]

(* ---------- abort decisions and tombstones survive a checkpoint ----------

   Checkpoints carry each node's abort-decision set (and SSS's remove
   tombstones) as a bitmap image, and truncate the log records that built
   it.  A node restarted from such an image must still know those sets. *)

let round_trip_config ~degree =
  {
    Sss_kv.Config.default with
    nodes = 3;
    replication_degree = degree;
    total_keys = 12;
    durability = true;
  }

(* the keys whose replicas are exactly [nodes] *)
let keys_at repl nodes =
  List.filter
    (fun k -> List.sort Int.compare (Sss_data.Replication.replicas repl k) = nodes)
    (List.init 12 Fun.id)

(* Hold back the first message of [kind] to node 1 by half a second. *)
let hold_first net ~kind_of ~kind =
  let held = ref false in
  Sss_net.Network.set_perturb net
    (Some
       (fun ~src:_ ~dst msg ->
         if dst = 1 && (not !held) && String.equal (kind_of msg) kind then begin
           held := true;
           { Sss_net.Network.no_fault with extra_delay = 0.5 }
         end
         else Sss_net.Network.no_fault));
  held

(* Crash node 1 at 0.1 s, after its checkpoint, and restart it at 0.11 s. *)
let crash_and_restart sim net ~crash ~restart =
  Sim.schedule sim ~delay:0.1 (fun () ->
      Sss_net.Network.crash net 1;
      crash ());
  Sim.schedule sim ~delay:0.11 restart

module Late_prepare (S : Sss_kv.Runtime.STORE) = struct
  (* Node 0 writes a key held only by node 1, whose Prepare is held back:
     the vote round times out and node 1 learns the abort first, and logs
     it.  A later update of another key at node 1 dirties its log (the
     same key would make Walter refuse the Prepare as a write conflict
     anyway), so a checkpoint carries the abort decision; with
     [checkpoints] off, replay of the logged abort must rebuild it.  Node 1
     then crashes and restarts before the Prepare lands, and must refuse
     it: an accepted Prepare leaves a prepared entry and its locks
     behind. *)
  let run ?(checkpoints = true) name =
    let sim = Sim.create () in
    let config = round_trip_config ~degree:1 in
    let config = if checkpoints then config else { config with checkpoint_interval = 0.0 } in
    let cl = S.create sim config in
    let key, other =
      match keys_at (S.repl cl) [ 1 ] with k :: o :: _ -> (k, o) | _ -> assert false
    in
    let net = S.network cl in
    let held = hold_first net ~kind_of:S.message_kind ~kind:"prepare" in
    let outcome = ref None in
    Sim.spawn sim (fun () ->
        let h = S.begin_txn cl ~node:0 ~read_only:false in
        S.write h key "late";
        outcome := Some (S.commit h);
        let w = S.begin_txn cl ~node:1 ~read_only:false in
        S.write w other "after";
        ignore (S.commit w : bool));
    crash_and_restart sim net
      ~crash:(fun () -> S.crash_node cl 1)
      ~restart:(fun () -> S.restart_node cl 1);
    Sim.run_until sim 0.502;
    Alcotest.(check bool) (name ^ ": prepare held back") true !held;
    Alcotest.(check (option bool)) (name ^ ": vote round timed out") (Some false) !outcome;
    match S.quiescent cl with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: the late prepare was accepted after restart: %s" name e
end

let test_late_prepare_after_restart () =
  let module Sss = Late_prepare (Sss_kv.Kv) in
  let module Twopc = Late_prepare (Twopc_kv.Twopc) in
  let module Walter = Late_prepare (Walter_kv.Walter) in
  Sss.run "SSS";
  Twopc.run "2PC";
  Walter.run "Walter"

(* The same with checkpoints off: only the log carries the abort that
   overtook its Prepare. *)
let test_late_prepare_replayed () =
  let module Sss = Late_prepare (Sss_kv.Kv) in
  let module Twopc = Late_prepare (Twopc_kv.Twopc) in
  let module Walter = Late_prepare (Walter_kv.Walter) in
  Sss.run ~checkpoints:false "SSS";
  Twopc.run ~checkpoints:false "2PC";
  Walter.run ~checkpoints:false "Walter"

(* A read-only transaction at node 0 reads a key held by nodes 1 and 2;
   node 1's copy of the read request is held back, so node 2 answers, the
   reader commits and node 1 tombstones it on its Remove.  An update at
   node 1 dirties its log, so a checkpoint carries the tombstone; node 1
   then crashes and restarts before the read request lands.  The restarted
   node must keep the tombstone, which both the read path and a writer's
   propagated reader entries consult, and must not enter the finished
   reader into its snapshot-queue, where nothing would ever remove it. *)
let test_sss_tombstone_after_restart () =
  let module Kv = Sss_kv.Kv in
  let sim = Sim.create () in
  let cl = Kv.create sim (round_trip_config ~degree:2) in
  let key = List.hd (keys_at (Kv.repl cl) [ 1; 2 ]) in
  let net = Kv.network cl in
  let held = hold_first net ~kind_of:Kv.message_kind ~kind:"read_request" in
  let reader = ref None in
  Sim.spawn sim (fun () ->
      let h = Kv.begin_txn cl ~node:0 ~read_only:true in
      ignore (Kv.read h key : string);
      if Kv.commit h then reader := Some (Kv.txn_id h);
      let w = Kv.begin_txn cl ~node:1 ~read_only:false in
      Kv.write w key "after";
      ignore (Kv.commit w : bool));
  crash_and_restart sim net
    ~crash:(fun () -> Kv.crash_node cl 1)
    ~restart:(fun () -> Kv.restart_node cl 1);
  Sim.run_until sim 0.502;
  Alcotest.(check bool) "read request held back" true !held;
  match !reader with
  | None -> Alcotest.fail "the reader did not commit"
  | Some r ->
      Alcotest.(check bool) "the restarted node keeps the tombstone" true
        (Sss_kv.State.is_tombstoned cl.Sss_kv.State.nodes.(1) r);
      (match Kv.quiescent cl with
      | Ok () -> ()
      | Error e -> Alcotest.failf "the late read entered a finished reader: %s" e)

(* ---------- the watermark GC across a crash ----------

   Read-only transactions homed at a crashed node die with it; the crash
   must release their watermark pins, or the cluster watermark stays
   anchored to their snapshots and the GC stops collecting for good.  At
   seed 9 the crashed node homes live readers at the crash.  The run is
   twice the recovery sweep's window, and collection must still make progress from
   20 ms after the restart to the end: a pinned watermark lets the GC trim
   chains once more down to the pin, then nothing.  Collection must also
   stay invisible: the history equals the GC-off run's.  Checkpointing is
   off, as a checkpoint's write time depends on how much the GC left to
   image; recovery replays the log. *)

let test_gc_across_crash () =
  let seed = 9 and crashed = 2 and crash_at = 0.015 and restart_at = 0.019 in
  let plan = Chaos.crash_restart ~seed ~node:crashed ~at:crash_at ~restart_at in
  let run gc =
    let s = durable_spec Store.Sss ~plan ~seed in
    let spec =
      { s with config = { s.config with gc; checkpoint_interval = 0.0 };
        load = { s.load with duration = 0.06 } }
    in
    let dropped cl =
      let _, versions, _ = Sss_kv.Kv.gc_stats cl in
      versions
    in
    (* live read-only transactions homed at the crashed node just before
       the crash, as the watermark sees them: their [Reading] pins *)
    let homed = ref 0 and after_restart = ref 0 in
    let setup (s : Store.t) =
      let cl = Option.get s.kv in
      Sim.schedule s.sim ~delay:(crash_at -. 1e-5) (fun () ->
          (Hashtbl.iter
             (fun _ -> function Sss_kv.State.Reading _ -> incr homed | _ -> ())
             cl.Sss_kv.State.nodes.(crashed).Sss_kv.State.coordinated [@order_ok]));
      Sim.schedule s.sim ~delay:(restart_at +. 0.02) (fun () -> after_restart := dropped cl)
    in
    let r = Spec.run ~setup spec in
    if (Option.get r.chaos).Chaos.restarts <> 1 then failf spec "crash/restart did not fire";
    assert_verdicts spec r;
    (r.result.committed, r.store.history, !homed, !after_restart, dropped (Option.get r.store.kv))
  in
  let off_committed, off_history, _, _, _ = run false in
  let committed, history, homed, after_restart, at_end = run true in
  Alcotest.(check bool)
    (Printf.sprintf "node %d homed live read-only transactions (%d)" crashed homed)
    true (homed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "GC kept collecting after the restart (%d -> %d versions)" after_restart
       at_end)
    true (at_end > after_restart);
  Alcotest.(check int) "committed as with GC off" off_committed committed;
  if History.events off_history <> History.events history then
    Alcotest.fail "GC changed the durable crash history"

(* ---------- a checkpointed node log restores in apply order ---------- *)

(* The NLog is ordered by its node's clock component ([Nlog.visible_max]
   binary-searches it and [most_recent_vc] reads its last entry), so a
   restart that loads a checkpoint must rebuild it oldest first.  GC is
   off so the log keeps everything the checkpoints imaged. *)
let test_nlog_restored_in_order () =
  for seed = 1 to 5 do
    let s = durable_spec Store.Sss ~plan:(crash_plan ~seed) ~seed in
    let spec = { s with config = { s.config with gc = false; checkpoint_interval = 0.005 } } in
    let r = Spec.run spec in
    if (Option.get r.chaos).Chaos.restarts <> 1 then failf spec "crash/restart did not fire";
    Array.iter
      (fun (n : Sss_kv.State.node) ->
        (* newest first: strictly decreasing *)
        let locals =
          List.map
            (fun (e : Sss_data.Nlog.entry) -> Sss_data.Vclock.get e.vc n.id)
            (Sss_data.Nlog.entries n.nlog)
        in
        ignore
          (List.fold_left
             (fun prev l ->
               if l >= prev then
                 failf spec "node %d: log local %d before %d" n.id l prev;
               l)
             max_int locals
            : int))
      (Option.get r.store.kv).Sss_kv.State.nodes
  done

(* ---------- checkpoint images share the live node's blocks ---------- *)

(* A durable run to quiescence: 3 nodes, 24 keys, no history, [n]
   sequential read-modify-writes with fixed-size values.  The last
   checkpoint was armed by the last append, so no node changed after its
   snapshot, and an image that shares the live node's blocks holds only
   its own spines, record headers and by-key columns. *)
let quiesced (type c) (module S : Sss_kv.Runtime.STORE with type cluster = c) n =
  let sim = Sim.create () in
  let config = { (durable_config ~degree:2 ~seed:1) with nodes = 3; record_history = false } in
  let cl = S.create sim config in
  Sim.spawn sim (fun () ->
      for i = 1 to n do
        let t = S.begin_txn cl ~node:(i mod 3) ~read_only:false in
        ignore (S.read t (i mod 24) : string);
        S.write t (i mod 24) "v";
        if not (S.commit t) then Alcotest.fail "a sequential update must commit"
      done);
  Sim.run sim;
  (match S.quiescent cl with Ok () -> () | Error e -> Alcotest.fail e);
  cl

(* Words reachable from [image] but not from [live]. *)
let image_only live image =
  Obj.reachable_words (Obj.repr (live, image)) - Obj.reachable_words (Obj.repr live)

(* Checkpoint-only words a node, after [n] transactions: SSS's whole
   checkpoint against its node record, Walter's chain image against its
   chains. *)
let sss_image_only n =
  let cl = quiesced (module Sss_kv.Kv) n in
  Array.map
    (fun (node : Sss_kv.State.node) -> image_only node (Sss_kv.State.checkpoint cl node.id))
    cl.Sss_kv.State.nodes

let walter_image_only n =
  let module W = Walter_kv.Walter in
  let cl = quiesced (module W) n in
  Array.init 3 (fun i -> image_only (W.store_repr cl i) (W.checkpoint_chains cl i))

(* The bound grows by a word per 16 transactions: about 1.2 words of
   spine and marks per 64-slot block.  A deep copy costs several words a
   version (at 3,000 transactions, thousands of words a node). *)
let test_images_share_blocks () =
  let check name per_node base =
    List.iter
      (fun n ->
        let bound = base + (n / 16) in
        Array.iteri
          (fun i w ->
            if w > bound then
              Alcotest.failf "%s, %d txns: node %d's checkpoint holds %d words of its own (bound %d)"
                name n i w bound)
          (per_node n))
      [ 300; 3_000 ]
  in
  check "sss" sss_image_only 200;
  check "walter" walter_image_only 40

(* ---------- the writer indexes are the prepared entries ---------- *)

(* At every event, each node's two writer indexes hold exactly what its
   prepared entries imply: the parked index the (final stamp, txn) pairs
   of the entries that carry a final clock, the commit queue the (current
   stamp, txn) pairs of the write-bearing ones that do not, where the
   current stamp is the Decide clock's own entry once decided and the vote
   clock's before.  A contended durable run with a crash and restart, in
   hardened and in paper mode. *)
let test_parked_is_prepared_and_applied () =
  let module St = Sss_kv.State in
  let module Ids = Sss_data.Ids in
  let module Vc = Sss_data.Vclock in
  let order (s, a) (s', b) =
    let c = Int.compare s s' in
    if c <> 0 then c else Int.compare (Ids.pack a) (Ids.pack b)
  in
  let show l =
    String.concat " " (List.map (fun (s, t) -> Printf.sprintf "%d:%s" s (Ids.txn_to_string t)) l)
  in
  List.iter
    (fun strict_order ->
      let seed = 3 in
      let s = durable_spec Store.Sss ~plan:(crash_plan ~seed) ~seed in
      let spec = { s with config = { s.config with total_keys = 8; strict_order } } in
      let stamps = ref 0 and queued = ref 0 in
      let check sim cl () =
        Array.iter
          (fun (node : St.node) ->
            let entries = Sss_kv.Runtime.sorted_bindings node.ac.Sss_kv.Runtime.prepared in
            let implied pick =
              List.sort order
                (List.filter_map
                   (fun (txn, p) -> Option.map (fun vc -> (Vc.get vc node.id, txn)) (pick p))
                   entries)
            in
            let agree what want got =
              if not (List.equal (fun (x, a) (y, b) -> x = y && Ids.equal_txn a b) want got)
              then
                failf spec "node %d at %.6f: %s [%s], prepared entries imply [%s]" node.id
                  (Sim.now sim) what (show got) (show want)
            in
            let parked = Sss_data.Stampset.to_list node.parked in
            agree "parked" (implied (fun (p : St.prep) -> p.final_vc)) parked;
            agree "queued"
              (implied (fun (p : St.prep) ->
                   if p.ws_local = [] || Option.is_some p.final_vc then None
                   else Some (Option.value p.decided ~default:p.prep_vc)))
              (Sss_data.Stampset.to_list node.queued);
            stamps := !stamps + List.length parked;
            queued := !queued + Sss_data.Stampset.length node.queued)
          cl.St.nodes
      in
      let probe (s : Store.t) = Sim.set_probe s.sim (Some (check s.sim (Option.get s.kv))) in
      let o = Spec.run ~setup:probe spec in
      assert_recovered spec o;
      if !stamps = 0 then failf spec "no writer ever parked";
      if !queued = 0 then failf spec "no writer ever queued")
    [ true; false ]

(* ---------- durability off: the hooks are inert ---------- *)

let test_off_trajectory_unchanged () =
  let seed = 7 in
  (* without durability, crash_node/restart_node fall back to the NIC-only
     fault: wiring the hooks must not move a single event.  The bare run
     installs the plan without them. *)
  let install_bare (s : Store.t) =
    let cl = Option.get s.kv in
    ignore
      (Chaos.install s.sim (Sss_kv.Kv.network cl) ~kind_of:Sss_kv.Kv.message_kind
         (crash_plan ~seed)
        : Chaos.handle)
  in
  let hooked_spec, hooked = run ~durability:false Store.Sss ~plan:(crash_plan ~seed) ~seed in
  let bare = Spec.run ~setup:install_bare { hooked_spec with plan = None } in
  Alcotest.(check int) "events identical" bare.des_events hooked.des_events;
  if History.events bare.store.history <> History.events hooked.store.history then
    failf hooked_spec "durability=off trajectory depends on hook wiring"

let () =
  Alcotest.run "durability"
    [
      ( "recovery",
        [
          Alcotest.test_case "crash-recovery sweep" `Quick test_crash_recovery_sweep;
          Alcotest.test_case "sss crash grid" `Quick test_sss_crash_grid;
          Alcotest.test_case "sss ro abort-free" `Quick test_sss_ro_abort_free_durable;
          Alcotest.test_case "late prepare after restart" `Quick test_late_prepare_after_restart;
          Alcotest.test_case "late prepare after replay" `Quick test_late_prepare_replayed;
          Alcotest.test_case "sss tombstone after restart" `Quick test_sss_tombstone_after_restart;
          Alcotest.test_case "gc keeps collecting across a crash" `Quick test_gc_across_crash;
          Alcotest.test_case "sss log restored in apply order" `Quick test_nlog_restored_in_order;
          Alcotest.test_case "checkpoint images share the live blocks" `Quick test_images_share_blocks;
          Alcotest.test_case "parked is prepared and applied" `Quick
            test_parked_is_prepared_and_applied;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "off trajectory unchanged" `Quick test_off_trajectory_unchanged;
          Alcotest.test_case "golden covers in-doubt" `Quick test_golden_covers_indoubt;
        ] );
    ]
