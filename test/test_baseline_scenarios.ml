(* Targeted scenario tests for the competitor protocols: Walter's commit
   paths and snapshot semantics, ROCOCO's reorder-instead-of-abort, and the
   2PC baseline's lock discipline. *)

open Sss_sim
open Sss_data
open Sss_consistency

let config ?(nodes = 4) ?(degree = 2) ?(keys = 16) ?(seed = 1) () =
  { Sss_kv.Config.default with nodes; replication_degree = degree; total_keys = keys; seed }

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail (Printf.sprintf "%s: %s" what msg)

(* ---------- Walter ---------- *)

(* A key whose primary is [node]. *)
let key_with_primary repl node total =
  let rec find k =
    if k >= total then None
    else if List.hd (Replication.replicas repl k) = node then Some k
    else find (k + 1)
  in
  find 0

let test_walter_fast_path_is_local () =
  (* Writing only keys whose preferred site is the home node commits without
     waiting on any other node: latency ~ the self-delivery cost. *)
  let sim = Sim.create () in
  let cl = Walter_kv.Walter.create sim (config ~nodes:3 ~degree:2 ~keys:30 ()) in
  let repl = Walter_kv.Walter.repl cl in
  match key_with_primary repl 1 30 with
  | None -> Alcotest.fail "no key with primary 1"
  | Some k ->
      let committed_at = ref infinity in
      Sim.spawn sim (fun () ->
          let t = Walter_kv.Walter.begin_txn cl ~node:1 ~read_only:false in
          Walter_kv.Walter.write t k "fast";
          Alcotest.(check bool) "committed" true (Walter_kv.Walter.commit t);
          committed_at := Sim.now sim);
      Sim.run sim;
      Alcotest.(check bool)
        (Printf.sprintf "fast path latency %.1fµs" (!committed_at *. 1e6))
        true
        (* no network round trip: well under one 20µs hop *)
        (!committed_at < 20e-6)

let test_walter_slow_path_conflict_aborts () =
  (* Two transactions racing a write on the same key: exactly one commits
     (PSI write-write conflict). *)
  let sim = Sim.create () in
  let cl = Walter_kv.Walter.create sim (config ~nodes:3 ~degree:2 ~keys:30 ()) in
  let repl = Walter_kv.Walter.repl cl in
  match key_with_primary repl 2 30 with
  | None -> Alcotest.fail "no key with primary 2"
  | Some k ->
      let r1 = ref None and r2 = ref None in
      let run_one result home =
        let t = Walter_kv.Walter.begin_txn cl ~node:home ~read_only:false in
        ignore (Walter_kv.Walter.read t k);
        Walter_kv.Walter.write t k (Printf.sprintf "from%d" home);
        result := Some (Walter_kv.Walter.commit t)
      in
      Sim.spawn sim (fun () -> run_one r1 0);
      Sim.spawn sim (fun () -> run_one r2 1);
      Sim.run sim;
      let committed = List.length (List.filter (( = ) (Some true)) [ !r1; !r2 ]) in
      Alcotest.(check int) "exactly one writer wins" 1 committed;
      check_ok "no lost updates" (Checker.no_lost_updates (Walter_kv.Walter.history cl));
      check_ok "quiescent" (Walter_kv.Walter.quiescent cl)

let test_walter_snapshot_excludes_concurrent_commit () =
  (* A transaction begun before a remote commit propagates keeps reading the
     old value (PSI snapshot), even after the commit lands. *)
  let sim = Sim.create () in
  let cl = Walter_kv.Walter.create sim (config ~nodes:3 ~degree:2 ~keys:30 ()) in
  let seen = ref "" in
  Sim.spawn sim (fun () ->
      let snap = Walter_kv.Walter.begin_txn cl ~node:0 ~read_only:true in
      (* hold the snapshot while another site commits *)
      Sim.sleep sim 0.002;
      seen := Walter_kv.Walter.read snap 5;
      ignore (Walter_kv.Walter.commit snap));
  Sim.schedule sim ~delay:0.0005 (fun () ->
      let t = Walter_kv.Walter.begin_txn cl ~node:1 ~read_only:false in
      ignore (Walter_kv.Walter.read t 5);
      Walter_kv.Walter.write t 5 "new";
      ignore (Walter_kv.Walter.commit t));
  Sim.run sim;
  Alcotest.(check string) "snapshot isolation" "init:5" !seen

(* ---------- ROCOCO ---------- *)

let test_rococo_conflicting_updates_both_commit () =
  (* The defining contrast with lock/validation protocols: two conflicting
     RMWs dispatched concurrently BOTH commit — the servers reorder the
     pieces instead of aborting. *)
  let sim = Sim.create () in
  let cl = Rococo_kv.Rococo.create sim (config ~nodes:3 ~degree:1 ~keys:12 ()) in
  let r1 = ref None and r2 = ref None in
  let barrier = Sim.Cond.create () in
  let dispatched = ref 0 in
  let run_one result home =
    let t = Rococo_kv.Rococo.begin_txn cl ~node:home ~read_only:false in
    ignore (Rococo_kv.Rococo.read t 3);
    incr dispatched;
    Sim.Cond.broadcast sim barrier;
    Sim.Cond.await sim barrier (fun () -> !dispatched >= 2);
    Rococo_kv.Rococo.write t 3 (Printf.sprintf "w%d" home);
    result := Some (Rococo_kv.Rococo.commit t)
  in
  Sim.spawn sim (fun () -> run_one r1 0);
  Sim.spawn sim (fun () -> run_one r2 1);
  Sim.run sim;
  Alcotest.(check (option bool)) "first committed" (Some true) !r1;
  Alcotest.(check (option bool)) "second committed" (Some true) !r2;
  check_ok "serializable nonetheless" (Checker.serializability (Rococo_kv.Rococo.history cl));
  check_ok "quiescent" (Rococo_kv.Rococo.quiescent cl)

(* Durable ROCOCO's aliveness watchdog: a piece whose driving client is
   gone must not gate its key forever.  A client at node 0 dispatches a
   piece on a key of node 1 and never commits; node 0 then crashes and
   restarts, forgetting the transaction.  Node 1's watchdog asks node 0
   whether it is still in flight, hears no, and withdraws the piece, so a
   later update on the key commits. *)
let test_rococo_watchdog_withdraws_orphan () =
  let module R = Rococo_kv.Rococo in
  let sim = Sim.create () in
  let config =
    { (config ~nodes:3 ~degree:1 ~keys:12 ()) with
      durability = true; fault_tolerance = true; observe = true }
  in
  let cl = R.create sim config in
  let key = (R.local_keys cl 1).(0) in
  let plan = Sss_chaos.Chaos.crash_restart ~seed:1 ~node:0 ~at:0.005 ~restart_at:0.01 in
  ignore
    (Sss_chaos.Chaos.install sim (R.network cl) ~kind_of:R.message_kind
       ~on_crash:(R.crash_node cl) ~on_restart:(R.restart_node cl) plan
      : Sss_chaos.Chaos.handle);
  Sim.spawn sim (fun () ->
      let t = R.begin_txn cl ~node:0 ~read_only:false in
      ignore (R.read t key : string));
  let later = ref None in
  Sim.spawn sim (fun () ->
      Sim.sleep sim 0.05;
      let t = R.begin_txn cl ~node:2 ~read_only:false in
      ignore (R.read t key : string);
      R.write t key "later";
      later := Some (R.commit t));
  Sim.run sim;
  let obs = Option.get (R.obs cl) in
  Alcotest.(check bool) "node 1 asked node 0 about the orphan" true
    (Sss_obs.Obs.counter obs "msg.sent.alive_query" > 0);
  Alcotest.(check (option bool)) "the later update committed" (Some true) !later;
  Alcotest.(check string) "and wrote the key" "later" (fst (R.latest cl ~node:1 key));
  check_ok "quiescent" (R.quiescent cl)

let test_rococo_ro_waits_out_conflicts () =
  (* A read-only transaction issued while update pieces are buffered returns
     a consistent (post-update) state rather than a torn one. *)
  let sim = Sim.create () in
  let cl = Rococo_kv.Rococo.create sim (config ~nodes:3 ~degree:1 ~keys:12 ()) in
  let a = ref "" and b = ref "" in
  Sim.spawn sim (fun () ->
      let t = Rococo_kv.Rococo.begin_txn cl ~node:0 ~read_only:false in
      ignore (Rococo_kv.Rococo.read t 1);
      ignore (Rococo_kv.Rococo.read t 2);
      Rococo_kv.Rococo.write t 1 "pair";
      Rococo_kv.Rococo.write t 2 "pair";
      ignore (Rococo_kv.Rococo.commit t));
  Sim.schedule sim ~delay:0.00003 (fun () ->
      let t = Rococo_kv.Rococo.begin_txn cl ~node:1 ~read_only:true in
      a := Rococo_kv.Rococo.read t 1;
      b := Rococo_kv.Rococo.read t 2;
      if Rococo_kv.Rococo.commit t then ()
      else begin
        (* bounded retries may abort under contention; rerun once quiet *)
        let t = Rococo_kv.Rococo.begin_txn cl ~node:1 ~read_only:true in
        a := Rococo_kv.Rococo.read t 1;
        b := Rococo_kv.Rococo.read t 2;
        ignore (Rococo_kv.Rococo.commit t)
      end);
  Sim.run sim;
  Alcotest.(check bool)
    (Printf.sprintf "atomic view (%S/%S)" !a !b)
    true
    ((!a = "pair" && !b = "pair") || (!a = "init:1" && !b = "init:2"));
  check_ok "serializable" (Checker.serializability (Rococo_kv.Rococo.history cl))

(* ---------- 2PC baseline ---------- *)

let test_twopc_write_write_race_one_wins () =
  let sim = Sim.create () in
  let cl = Twopc_kv.Twopc.create sim (config ~nodes:3 ~degree:2 ~keys:12 ()) in
  let results = Array.make 4 None in
  for i = 0 to 3 do
    (* slight stagger: fully simultaneous prepares can all mutually abort *)
    Sim.schedule sim ~delay:(float_of_int i *. 60e-6) (fun () ->
        let t = Twopc_kv.Twopc.begin_txn cl ~node:(i mod 3) ~read_only:false in
        ignore (Twopc_kv.Twopc.read t 7);
        Twopc_kv.Twopc.write t 7 (Printf.sprintf "c%d" i);
        results.(i) <- Some (Twopc_kv.Twopc.commit t))
  done;
  Sim.run sim;
  let commits =
    Array.to_list results |> List.filter (( = ) (Some true)) |> List.length
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d of 4 racing RMWs committed" commits)
    true
    (commits >= 1 && commits < 4);
  check_ok "external consistency" (Checker.external_consistency (Twopc_kv.Twopc.history cl));
  check_ok "no lost updates" (Checker.no_lost_updates (Twopc_kv.Twopc.history cl));
  check_ok "quiescent" (Twopc_kv.Twopc.quiescent cl)

let test_twopc_locks_released_after_abort () =
  let sim = Sim.create () in
  let cl = Twopc_kv.Twopc.create sim (config ~nodes:3 ~degree:2 ~keys:12 ()) in
  Sim.spawn sim (fun () ->
      (* a validation-doomed transaction: read, let someone overwrite, commit *)
      let t = Twopc_kv.Twopc.begin_txn cl ~node:0 ~read_only:false in
      ignore (Twopc_kv.Twopc.read t 4);
      let u = Twopc_kv.Twopc.begin_txn cl ~node:1 ~read_only:false in
      ignore (Twopc_kv.Twopc.read u 4);
      Twopc_kv.Twopc.write u 4 "overwritten";
      Alcotest.(check bool) "overwriter commits" true (Twopc_kv.Twopc.commit u);
      Twopc_kv.Twopc.write t 4 "stale";
      Alcotest.(check bool) "stale RMW aborts" false (Twopc_kv.Twopc.commit t);
      (* and the system is usable right away *)
      let v = Twopc_kv.Twopc.begin_txn cl ~node:2 ~read_only:false in
      ignore (Twopc_kv.Twopc.read v 4);
      Twopc_kv.Twopc.write v 4 "after";
      Alcotest.(check bool) "next txn commits" true (Twopc_kv.Twopc.commit v));
  Sim.run sim;
  check_ok "quiescent" (Twopc_kv.Twopc.quiescent cl)

let () =
  Alcotest.run "baseline-scenarios"
    [
      ( "walter",
        [
          Alcotest.test_case "fast path is local" `Quick test_walter_fast_path_is_local;
          Alcotest.test_case "ww conflict aborts one" `Quick
            test_walter_slow_path_conflict_aborts;
          Alcotest.test_case "snapshot excludes concurrent commit" `Quick
            test_walter_snapshot_excludes_concurrent_commit;
        ] );
      ( "rococo",
        [
          Alcotest.test_case "conflicting updates both commit" `Quick
            test_rococo_conflicting_updates_both_commit;
          Alcotest.test_case "read-only atomic view" `Quick test_rococo_ro_waits_out_conflicts;
          Alcotest.test_case "watchdog withdraws an orphaned piece" `Quick
            test_rococo_watchdog_withdraws_orphan;
        ] );
      ( "twopc",
        [
          Alcotest.test_case "ww race" `Quick test_twopc_write_write_race_one_wins;
          Alcotest.test_case "abort releases locks" `Quick test_twopc_locks_released_after_abort;
        ] );
    ]
