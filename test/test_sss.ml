(* Integration tests for the SSS protocol: basic transactional behaviour,
   the paper's Figure 1 / Figure 2 executions, abort-freedom, snapshot-queue
   hygiene, and checker-verified random workloads. *)

open Sss_sim
open Sss_data
open Sss_kv
open Sss_consistency

let make ?(nodes = 2) ?(degree = 1) ?(keys = 16) ?(seed = 1) ?(observe = false) () =
  let sim = Sim.create () in
  let config =
    {
      Config.default with
      nodes;
      replication_degree = degree;
      total_keys = keys;
      seed;
      observe;
    }
  in
  let cl = Kv.create sim config in
  (sim, cl)

(* A key stored (exclusively, under degree 1) on [node]. *)
let key_on (cl : Kv.cluster) node = (Replication.keys_at cl.State.repl node).(0)

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail (Printf.sprintf "%s: %s" what msg)

(* A node's own clock entry only ever grows, and every value it mints is
   congruent to the node's id modulo the cluster size — also after a
   larger value was imported into the entry. *)
let test_bump_local () =
  let nodes = 3 in
  let _, cl = make ~nodes () in
  Array.iter
    (fun (node : State.node) ->
      let last = ref (Vclock.get node.node_vc node.id) in
      let check_bump () =
        let v = Vclock.get (State.bump_local cl node) node.id in
        if v <= !last then Alcotest.failf "node %d clock went %d -> %d" node.id !last v;
        Alcotest.(check int) "minted value is ≡ id mod nodes" node.id (v mod nodes);
        last := v
      in
      for _ = 1 to 4 do check_bump () done;
      (Vclock.set_into node.node_vc node.id (!last + 7) [@owned]);
      last := !last + 7;
      for _ = 1 to 4 do check_bump () done)
    cl.State.nodes

let test_basic_update_commit () =
  let sim, cl = make () in
  let outcome = ref None in
  let later_read = ref "" in
  Sim.spawn sim (fun () ->
      let t = Kv.begin_txn cl ~node:0 ~read_only:false in
      let v0 = Kv.read t 3 in
      Alcotest.(check string) "initial value" "init:3" v0;
      Kv.write t 3 "updated";
      outcome := Some (Kv.commit t);
      let t2 = Kv.begin_txn cl ~node:1 ~read_only:true in
      later_read := Kv.read t2 3;
      ignore (Kv.commit t2));
  Sim.run sim;
  Alcotest.(check (option bool)) "committed" (Some true) !outcome;
  Alcotest.(check string) "new value visible" "updated" !later_read;
  check_ok "external consistency" (Checker.external_consistency (Kv.history cl));
  check_ok "quiescent" (Kv.quiescent cl)

let test_read_your_writes () =
  let sim, cl = make () in
  Sim.spawn sim (fun () ->
      let t = Kv.begin_txn cl ~node:0 ~read_only:false in
      Kv.write t 5 "mine";
      Alcotest.(check string) "sees own write" "mine" (Kv.read t 5);
      ignore (Kv.commit t));
  Sim.run sim

let test_write_on_read_only_rejected () =
  let sim, cl = make () in
  let raised = ref false in
  Sim.spawn sim (fun () ->
      let t = Kv.begin_txn cl ~node:0 ~read_only:true in
      (try Kv.write t 1 "nope" with Invalid_argument _ -> raised := true);
      ignore (Kv.commit t));
  Sim.run sim;
  Alcotest.(check bool) "write rejected" true !raised

let test_read_only_snapshot_is_stable () =
  (* A read-only transaction that re-reads a key sees the same version even
     if an update committed in between. *)
  let sim, cl = make ~nodes:2 ~degree:1 () in
  let k = key_on cl 1 in
  let first = ref "" and second = ref "" in
  Sim.spawn sim (fun () ->
      let t = Kv.begin_txn cl ~node:0 ~read_only:true in
      first := Kv.read t k;
      Sim.sleep sim 0.005;
      second := Kv.read t k;
      ignore (Kv.commit t));
  Sim.schedule sim ~delay:0.001 (fun () ->
      let u = Kv.begin_txn cl ~node:1 ~read_only:false in
      ignore (Kv.read u k);
      Kv.write u k "overwritten";
      ignore (Kv.commit u));
  Sim.run sim;
  Alcotest.(check string) "first read" (Printf.sprintf "init:%d" k) !first;
  Alcotest.(check string) "snapshot stable" !first !second;
  check_ok "external consistency" (Checker.external_consistency (Kv.history cl));
  check_ok "quiescent" (Kv.quiescent cl)

(* Figure 1: read-only T1 reads y; concurrent update T2 overwrites y and
   internally commits, but its client response (external commit) is held
   until T1 completes and its Remove message arrives. *)
let test_fig1_anti_dependency_delays_external_commit () =
  let sim, cl = make ~nodes:2 ~degree:1 () in
  Kv.set_collect_latencies cl true;
  let ky = key_on cl 1 in
  let t1_value = ref "" in
  let t1_commit_at = ref infinity in
  let t2_external_at = ref infinity in
  let t2_ok = ref false in
  Sim.spawn sim (fun () ->
      let t1 = Kv.begin_txn cl ~node:0 ~read_only:true in
      t1_value := Kv.read t1 ky;
      Sim.sleep sim 0.010;  (* keep the snapshot open for 10ms *)
      ignore (Kv.commit t1);
      t1_commit_at := Sim.now sim);
  Sim.schedule sim ~delay:0.001 (fun () ->
      let t2 = Kv.begin_txn cl ~node:1 ~read_only:false in
      ignore (Kv.read t2 ky);
      Kv.write t2 ky "y1";
      t2_ok := Kv.commit t2;
      t2_external_at := Sim.now sim);
  Sim.run sim;
  Alcotest.(check bool) "T2 committed" true !t2_ok;
  Alcotest.(check string) "T1 read the old version" (Printf.sprintf "init:%d" ky) !t1_value;
  Alcotest.(check bool)
    (Printf.sprintf "T2's response (%.4f) held until after T1 completed (%.4f)"
       !t2_external_at !t1_commit_at)
    true
    (!t2_external_at > !t1_commit_at);
  (* The latency breakdown must show the pre-commit wait dominating. *)
  (match (Kv.stats cl).State.latencies with
  | [ (begin_at, decide_at, external_at) ] ->
      Alcotest.(check bool) "wait >= 8ms" true (external_at -. decide_at > 0.008);
      Alcotest.(check bool) "execution was fast" true (decide_at -. begin_at < 0.005)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 latency record, got %d" (List.length l)));
  check_ok "external consistency" (Checker.external_consistency (Kv.history cl));
  check_ok "quiescent (snapshot queues drained)" (Kv.quiescent cl)

(* A Decide that arrives again after the apply (a lost-Decide retry, the
   watchdog's completion) changes nothing: the writer stays parked under
   its final clock and does not re-enter the commit queue. *)
let test_duplicate_decide_after_apply () =
  let sim, cl = make ~nodes:2 ~degree:1 () in
  let ky = key_on cl 1 and node = State.node cl 1 in
  let checked = ref false in
  Sim.spawn sim (fun () ->
      let r = Kv.begin_txn cl ~node:0 ~read_only:true in
      ignore (Kv.read r ky);
      Sim.sleep sim 0.010;
      ignore (Kv.commit r));
  Sim.schedule sim ~delay:0.001 (fun () ->
      let w = Kv.begin_txn cl ~node:1 ~read_only:false in
      Kv.write w ky "y1";
      Sim.schedule sim ~delay:0.004 (fun () ->
          (* applied, and held by the reader's entry *)
          let txn = Kv.txn_id w in
          let p = Hashtbl.find node.State.ac.Runtime.prepared txn in
          let vc = Option.get p.State.final_vc in
          let parked = Stampset.to_list node.State.parked in
          Server.handle_decide cl node ~txn ~vc ~outcome:true;
          Alcotest.(check int) "commit queue stays empty" 0 (Stampset.length node.State.queued);
          Alcotest.(check bool) "still parked" true (parked = Stampset.to_list node.State.parked);
          Alcotest.(check bool) "final clock kept" true (Option.get p.State.final_vc == vc);
          checked := true);
      ignore (Kv.commit w : bool));
  Sim.run sim;
  Alcotest.(check bool) "checked while parked" true !checked;
  check_ok "quiescent" (Kv.quiescent cl)

(* While an update transaction is parked in a snapshot-queue, its written
   keys are already visible to subsequent *update* transactions (the
   progress property of §I) — but read-only transactions observe a writer
   only once it is externally committed, so a fresh read-only sees the old
   value during the hold and the new one after. *)
let test_precommit_values_visible () =
  let sim, cl = make ~nodes:2 ~degree:1 () in
  let ky = key_on cl 1 in
  let update_saw = ref "" in
  let ro_saw_during = ref "" in
  let ro_saw_after = ref "" in
  let update_commit_at = ref infinity in
  Sim.spawn sim (fun () ->
      let t1 = Kv.begin_txn cl ~node:0 ~read_only:true in
      ignore (Kv.read t1 ky);
      Sim.sleep sim 0.010;
      ignore (Kv.commit t1));
  Sim.schedule sim ~delay:0.001 (fun () ->
      let t2 = Kv.begin_txn cl ~node:1 ~read_only:false in
      ignore (Kv.read t2 ky);
      Kv.write t2 ky "held";
      ignore (Kv.commit t2));
  (* At 5ms, T2 is internally committed but still held by T1. *)
  Sim.schedule sim ~delay:0.005 (fun () ->
      let t3 = Kv.begin_txn cl ~node:1 ~read_only:false in
      update_saw := Kv.read t3 ky;
      ignore (Kv.commit t3);
      (* T3 read T2's parked write, so its own response chains behind T2's
         external commit (which waits for T1 until 10ms). *)
      update_commit_at := Sim.now sim);
  Sim.schedule sim ~delay:0.006 (fun () ->
      let t4 = Kv.begin_txn cl ~node:1 ~read_only:true in
      ro_saw_during := Kv.read t4 ky;
      ignore (Kv.commit t4));
  Sim.schedule sim ~delay:0.015 (fun () ->
      let t5 = Kv.begin_txn cl ~node:1 ~read_only:true in
      ro_saw_after := Kv.read t5 ky;
      ignore (Kv.commit t5));
  Sim.run sim;
  Alcotest.(check string) "update txn saw the held write" "held" !update_saw;
  Alcotest.(check string) "read-only during the hold sees the old value"
    (Printf.sprintf "init:%d" ky) !ro_saw_during;
  Alcotest.(check string) "read-only after external commit sees it" "held" !ro_saw_after;
  Alcotest.(check bool) "reader of parked data chained behind the hold" true
    (!update_commit_at > 0.010);
  check_ok "external consistency" (Checker.external_consistency (Kv.history cl));
  check_ok "quiescent" (Kv.quiescent cl)

(* Figure 2: two read-only transactions and two non-conflicting update
   transactions; the readers must not observe the updates in different
   orders. The checker's serializability test is exactly this property. *)
let test_fig2_no_divergent_orders () =
  let sim, cl = make ~nodes:4 ~degree:1 ~keys:32 () in
  let kx = key_on cl 1 and ky = key_on cl 2 in
  (* T1 on node 0 reads x then y; T4 on node 3 reads y then x. *)
  Sim.spawn sim (fun () ->
      let t1 = Kv.begin_txn cl ~node:0 ~read_only:true in
      ignore (Kv.read t1 kx);
      Sim.sleep sim 0.004;
      ignore (Kv.read t1 ky);
      ignore (Kv.commit t1));
  Sim.spawn sim (fun () ->
      let t4 = Kv.begin_txn cl ~node:3 ~read_only:true in
      ignore (Kv.read t4 ky);
      Sim.sleep sim 0.004;
      ignore (Kv.read t4 kx);
      ignore (Kv.commit t4));
  (* Non-conflicting updates land in the middle of both readers. *)
  Sim.schedule sim ~delay:0.002 (fun () ->
      let t2 = Kv.begin_txn cl ~node:1 ~read_only:false in
      ignore (Kv.read t2 kx);
      Kv.write t2 kx "x1";
      ignore (Kv.commit t2));
  Sim.schedule sim ~delay:0.002 (fun () ->
      let t3 = Kv.begin_txn cl ~node:2 ~read_only:false in
      ignore (Kv.read t3 ky);
      Kv.write t3 ky "y1";
      ignore (Kv.commit t3));
  Sim.run sim;
  check_ok "serializable (no divergent orders)" (Checker.serializability (Kv.history cl));
  check_ok "external consistency" (Checker.external_consistency (Kv.history cl));
  check_ok "quiescent" (Kv.quiescent cl)

let test_conflicting_update_aborts () =
  let sim, cl = make ~nodes:2 ~degree:1 () in
  let k = key_on cl 0 in
  let r1 = ref None and r2 = ref None in
  let barrier = Sim.Cond.create () in
  let reads_done = ref 0 in
  let run_one result =
    let t = Kv.begin_txn cl ~node:0 ~read_only:false in
    ignore (Kv.read t k);
    incr reads_done;
    Sim.Cond.broadcast sim barrier;
    (* Both must have read before either commits. *)
    Sim.Cond.await sim barrier (fun () -> !reads_done >= 2);
    Kv.write t k "mine";
    result := Some (Kv.commit t)
  in
  Sim.spawn sim (fun () -> run_one r1);
  Sim.spawn sim (fun () -> run_one r2);
  Sim.run sim;
  let committed = List.length (List.filter (( = ) (Some true)) [ !r1; !r2 ]) in
  let aborted = List.length (List.filter (( = ) (Some false)) [ !r1; !r2 ]) in
  Alcotest.(check int) "exactly one committed" 1 committed;
  Alcotest.(check int) "exactly one aborted" 1 aborted;
  check_ok "external consistency" (Checker.external_consistency (Kv.history cl));
  check_ok "quiescent" (Kv.quiescent cl)

let test_ro_abort_then_cleanup () =
  let sim, cl = make ~nodes:2 ~degree:1 () in
  let k = key_on cl 1 in
  Sim.spawn sim (fun () ->
      let t = Kv.begin_txn cl ~node:0 ~read_only:true in
      ignore (Kv.read t k);
      Kv.abort t);
  Sim.run sim;
  check_ok "abort cleaned snapshot queues" (Kv.quiescent cl)

(* A read-only R and an update W, both homed on node 0, read a key of
   node 1.  R's commit Removes its entry there, and the Remove chases W
   home through Forward_remove while W is still open.  Whichever way W
   then ends, aborted or committed with no writes, its coordinator keeps
   no entry for it. *)
let test_chased_writer_leaves_no_entry () =
  List.iter
    (fun (what, finish) ->
      let sim, cl = make ~nodes:2 ~degree:1 () in
      let k = key_on cl 1 and home = State.node cl 0 in
      Sim.spawn sim (fun () ->
          let r = Kv.begin_txn cl ~node:0 ~read_only:true in
          ignore (Kv.read r k);
          let w = Kv.begin_txn cl ~node:0 ~read_only:false in
          ignore (Kv.read w k);
          ignore (Kv.commit r);
          Sim.sleep sim 0.005;
          (match Hashtbl.find_opt home.State.coordinated (Kv.txn_id w) with
          | Some (State.Open [ r' ]) when Ids.equal_txn r' (Kv.txn_id r) -> ()
          | _ -> Alcotest.failf "%s: R's Remove did not chase W" what);
          finish w;
          Sim.sleep sim 0.010;
          Alcotest.(check bool)
            (what ^ ": no coordinator entry for W") false
            (Hashtbl.mem home.State.coordinated (Kv.txn_id w)));
      Sim.run sim;
      check_ok (what ^ ": quiescent") (Kv.quiescent cl))
    [ ("abort", Kv.abort); ("write-free commit", fun w -> ignore (Kv.commit w : bool)) ]

(* A read-only transaction pins the GC watermark through its coordinator
   entry alone: from its first read the entry reads [Reading b], and the
   cluster watermark stays at or below [b] while updates homed on both
   nodes (on keys the reader did not read) raise every [coordinated_max]
   past it.  At commit the entry goes, and the watermark rises past [b]. *)
let test_ro_pin_lives_in_coordinator_entry () =
  let sim, cl = make ~nodes:2 ~degree:1 () in
  let home = State.node cl 0 in
  let keys_1 = Replication.keys_at cl.State.repl 1 in
  let k0 = key_on cl 0 and read_key = keys_1.(0) and written_key = keys_1.(1) in
  let update node =
    let w = Kv.begin_txn cl ~node ~read_only:false in
    Kv.write w k0 "a";
    Kv.write w written_key "b";
    Alcotest.(check bool) "update committed" true (Kv.commit w)
  in
  Sim.spawn sim (fun () ->
      update 0;
      update 1;
      let r = Kv.begin_txn cl ~node:0 ~read_only:true in
      ignore (Kv.read r read_key);
      let b =
        match Hashtbl.find_opt home.State.coordinated (Kv.txn_id r) with
        | Some (State.Reading b) -> b
        | _ -> Alcotest.fail "no Reading entry after the first read"
      in
      update 0;
      update 1;
      let pinned = State.cluster_watermark cl in
      Alcotest.(check bool)
        (Printf.sprintf "watermark %s at most the pin %s" (Vclock.to_string pinned)
           (Vclock.to_string b))
        true (Vclock.leq pinned b);
      ignore (Kv.commit r : bool);
      Alcotest.(check bool) "no entry after commit" false
        (Hashtbl.mem home.State.coordinated (Kv.txn_id r));
      Alcotest.(check bool) "the watermark rose past the pin" false
        (Vclock.leq (State.cluster_watermark cl) b));
  Sim.run sim;
  check_ok "quiescent" (Kv.quiescent cl)

(* A participant keeps one record per reader: a read-only R and an update
   W, both homed on node 0, read key k of node 1, R first, so node 1
   records R's entry on k and its propagation to W.  R's Remove takes the
   whole record and chases W with one Forward_remove. *)
let test_reader_record_goes_with_remove () =
  let sim, cl = make ~nodes:2 ~degree:1 ~observe:true () in
  let k = key_on cl 1 and node1 = State.node cl 1 in
  Sim.spawn sim (fun () ->
      let r = Kv.begin_txn cl ~node:0 ~read_only:true in
      ignore (Kv.read r k);
      let w = Kv.begin_txn cl ~node:0 ~read_only:false in
      ignore (Kv.read w k);
      (match Hashtbl.find_opt node1.State.readers (Kv.txn_id r) with
      | Some { State.keys = [ k' ]; forwards = [ (w', 0) ] }
        when k' = k && Ids.equal_txn w' (Kv.txn_id w) -> ()
      | _ -> Alcotest.fail "node 1 does not hold R's record as keys [k], forwards [(W, 0)]");
      ignore (Kv.commit r : bool);
      Sim.sleep sim 0.005;
      Alcotest.(check bool) "no record for R at node 1" false
        (Hashtbl.mem node1.State.readers (Kv.txn_id r));
      Kv.abort w);
  Sim.run sim;
  let o = Option.get (Kv.obs cl) in
  Alcotest.(check int) "Forward_remove messages" 1 (Sss_obs.Obs.counter o "msg.sent.forward_remove");
  check_ok "quiescent" (Kv.quiescent cl)

(* An update transaction's reads leave no snapshot-queue entry, so one
   that commits with no writes has nothing to Remove: it sends no Remove,
   and the replica it read keeps no tombstone for it. *)
let test_write_free_update_sends_no_remove () =
  let sim, cl = make ~nodes:2 ~degree:1 ~observe:true () in
  Sim.spawn sim (fun () ->
      let w = Kv.begin_txn cl ~node:0 ~read_only:false in
      ignore (Kv.read w (key_on cl 1));
      ignore (Kv.commit w : bool));
  Sim.run sim;
  let o = Option.get (Kv.obs cl) in
  Alcotest.(check int) "Remove messages" 0 (Sss_obs.Obs.counter o "msg.sent.remove");
  Alcotest.(check int) "tombstones at node 1" 0
    (Idset.Txns.cardinal (State.node cl 1).State.tombstones);
  check_ok "quiescent" (Kv.quiescent cl)

(* Run a random closed-loop workload and verify every property the paper
   claims, via the checker. *)
let run_workload ~nodes ~degree ~keys ~ro_ratio ~seed ~duration =
  let module Spec = Sss_experiments.Spec in
  let config = { Config.default with nodes; replication_degree = degree; total_keys = keys; seed } in
  let r = Spec.run (Spec.make ~ro:ro_ratio ~clients:4 ~warmup:0.01 ~duration Sss config) in
  (Option.get r.kv, r.result)

let assert_workload_correct what cl =
  let h = Kv.history cl in
  check_ok (what ^ ": external consistency") (Checker.external_consistency h);
  check_ok (what ^ ": serializability") (Checker.serializability h);
  check_ok (what ^ ": no lost updates") (Checker.no_lost_updates h);
  check_ok (what ^ ": read-only abort-free") (Checker.read_only_abort_free h);
  check_ok (what ^ ": quiescent") (Kv.quiescent cl);
  (* per-key state lives only while its key is queued or locked *)
  Array.iter
    (fun (n : State.node) ->
      Alcotest.(check int) (what ^ ": no idle snapshot-queue") 0 (Hashtbl.length n.State.squeues);
      Alcotest.(check int) (what ^ ": no idle lock state") 0 (Locks.key_count n.State.locks))
    cl.State.nodes

let test_workload_mixed () =
  let cl, result = run_workload ~nodes:3 ~degree:1 ~keys:24 ~ro_ratio:0.5 ~seed:7 ~duration:0.08 in
  Alcotest.(check bool)
    (Printf.sprintf "made progress (%d committed)" result.Sss_workload.Driver.committed)
    true
    (result.Sss_workload.Driver.committed > 50);
  assert_workload_correct "mixed" cl

let test_workload_replicated () =
  let cl, result = run_workload ~nodes:4 ~degree:2 ~keys:32 ~ro_ratio:0.2 ~seed:11 ~duration:0.08 in
  Alcotest.(check bool) "made progress" true (result.Sss_workload.Driver.committed > 50);
  assert_workload_correct "replicated" cl

let test_workload_contended () =
  (* Tiny key space: plenty of conflicts, aborts, and snapshot-queue traffic. *)
  let cl, result = run_workload ~nodes:4 ~degree:2 ~keys:8 ~ro_ratio:0.5 ~seed:13 ~duration:0.08 in
  Alcotest.(check bool) "made progress" true (result.Sss_workload.Driver.committed > 50);
  Alcotest.(check bool)
    (Printf.sprintf "saw conflicts (%d aborts)" result.Sss_workload.Driver.aborted)
    true
    (result.Sss_workload.Driver.aborted > 0);
  assert_workload_correct "contended" cl

let test_workload_read_dominated () =
  let cl, result = run_workload ~nodes:4 ~degree:2 ~keys:32 ~ro_ratio:0.9 ~seed:17 ~duration:0.08 in
  Alcotest.(check bool) "made progress" true (result.Sss_workload.Driver.committed > 50);
  assert_workload_correct "read-dominated" cl

let test_determinism () =
  let run () =
    let cl, result = run_workload ~nodes:3 ~degree:2 ~keys:16 ~ro_ratio:0.5 ~seed:23 ~duration:0.05 in
    (result.Sss_workload.Driver.committed, result.Sss_workload.Driver.aborted,
     History.length (Kv.history cl))
  in
  let a = run () and b = run () in
  Alcotest.(check (triple int int int)) "identical runs" a b

let () =
  Alcotest.run "sss"
    [
      ( "basics",
        [
          Alcotest.test_case "update commit" `Quick test_basic_update_commit;
          Alcotest.test_case "read your writes" `Quick test_read_your_writes;
          Alcotest.test_case "ro write rejected" `Quick test_write_on_read_only_rejected;
          Alcotest.test_case "ro snapshot stable" `Quick test_read_only_snapshot_is_stable;
          Alcotest.test_case "vclock bump strictly increasing" `Quick test_bump_local;
        ] );
      ( "paper-scenarios",
        [
          Alcotest.test_case "fig1 anti-dependency delay" `Quick
            test_fig1_anti_dependency_delays_external_commit;
          Alcotest.test_case "pre-commit visibility" `Quick test_precommit_values_visible;
          Alcotest.test_case "duplicate decide after apply" `Quick
            test_duplicate_decide_after_apply;
          Alcotest.test_case "fig2 non-conflicting order" `Quick test_fig2_no_divergent_orders;
          Alcotest.test_case "conflict aborts one" `Quick test_conflicting_update_aborts;
          Alcotest.test_case "ro abort cleanup" `Quick test_ro_abort_then_cleanup;
          Alcotest.test_case "write-free update sends no Remove" `Quick
            test_write_free_update_sends_no_remove;
          Alcotest.test_case "chased writer leaves no entry" `Quick
            test_chased_writer_leaves_no_entry;
          Alcotest.test_case "a read-only pin lives in its coordinator entry" `Quick
            test_ro_pin_lives_in_coordinator_entry;
          Alcotest.test_case "a reader's record goes with its Remove" `Quick
            test_reader_record_goes_with_remove;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "mixed" `Quick test_workload_mixed;
          Alcotest.test_case "replicated" `Quick test_workload_replicated;
          Alcotest.test_case "contended" `Quick test_workload_contended;
          Alcotest.test_case "read dominated" `Quick test_workload_read_dominated;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
    ]
