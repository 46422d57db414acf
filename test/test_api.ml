(* API-contract tests: misuse detection, the retry helper, the workload
   driver's knobs, and small utility contracts. *)

open Sss_sim
open Sss_data
open Sss_kv

let make ?(nodes = 2) ?(keys = 16) () =
  let sim = Sim.create () in
  let cl =
    Kv.create sim
      { Config.default with nodes; replication_degree = 1; total_keys = keys }
  in
  (sim, cl)

let in_fiber sim f =
  let out = ref None in
  Sim.spawn sim (fun () -> out := Some (f ()));
  Sim.run sim;
  Option.get !out

(* ---------- misuse ---------- *)

let test_double_commit_rejected () =
  let sim, cl = make () in
  in_fiber sim (fun () ->
      let t = Kv.begin_txn cl ~node:0 ~read_only:false in
      Kv.write t 1 "x";
      ignore (Kv.commit t);
      match Kv.commit t with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "second commit should raise")

let test_read_after_finish_rejected () =
  let sim, cl = make () in
  in_fiber sim (fun () ->
      let t = Kv.begin_txn cl ~node:0 ~read_only:true in
      ignore (Kv.read t 1);
      ignore (Kv.commit t);
      match Kv.read t 2 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "read after commit should raise")

let test_abort_after_commit_rejected () =
  let sim, cl = make () in
  in_fiber sim (fun () ->
      let t = Kv.begin_txn cl ~node:0 ~read_only:true in
      ignore (Kv.commit t);
      match Kv.abort t with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "abort after commit should raise")

let test_unknown_key_rejected () =
  let sim, cl = make ~keys:4 () in
  in_fiber sim (fun () ->
      let t = Kv.begin_txn cl ~node:0 ~read_only:true in
      match Kv.read t 9999 with
      | exception Not_found -> Kv.abort t
      | exception Invalid_argument _ -> Kv.abort t
      | _ -> Alcotest.fail "unknown key should raise")

(* ---------- with_txn ---------- *)

let test_with_txn_commits () =
  let sim, cl = make () in
  let v =
    in_fiber sim (fun () ->
        Kv.with_txn cl ~node:0 ~read_only:false (fun t ->
            Kv.write t 3 "via-helper";
            "done"))
  in
  Alcotest.(check (option string)) "body result" (Some "done") v;
  (* the write is durable and visible to a later transaction *)
  let sim2 = Sim.create () in
  ignore sim2;
  let seen =
    in_fiber sim (fun () ->
        Kv.with_txn cl ~node:1 ~read_only:true (fun t -> Kv.read t 3))
  in
  Alcotest.(check (option string)) "visible later" (Some "via-helper") seen

let test_with_txn_retries_conflict () =
  let sim, cl = make () in
  let attempts = ref 0 in
  let result = ref None in
  let barrier = Sim.Cond.create () in
  let reads = ref 0 in
  (* two RMWs on the same key, synchronized so both read before either
     commits: one will abort and must be retried by the helper *)
  let body t =
    incr attempts;
    ignore (Kv.read t 5);
    if !attempts <= 1 then begin
      incr reads;
      Sim.Cond.broadcast sim barrier;
      Sim.Cond.await sim barrier (fun () -> !reads >= 2)
    end;
    Kv.write t 5 "retry-winner"
  in
  Sim.spawn sim (fun () -> result := Kv.with_txn cl ~node:0 ~read_only:false body);
  Sim.spawn sim (fun () ->
      let t = Kv.begin_txn cl ~node:1 ~read_only:false in
      ignore (Kv.read t 5);
      incr reads;
      Sim.Cond.broadcast sim barrier;
      Sim.Cond.await sim barrier (fun () -> !reads >= 2);
      Kv.write t 5 "other";
      ignore (Kv.commit t));
  Sim.run sim;
  Alcotest.(check bool) "helper eventually committed" true (!result = Some ());
  Alcotest.(check bool)
    (Printf.sprintf "body ran more than once (%d)" !attempts)
    true (!attempts >= 1)

let test_with_txn_exception_aborts () =
  let sim, cl = make () in
  in_fiber sim (fun () ->
      (match
         Kv.with_txn cl ~node:0 ~read_only:true (fun t ->
             ignore (Kv.read t 1);
             failwith "boom")
       with
      | exception Failure m -> Alcotest.(check string) "propagated" "boom" m
      | _ -> Alcotest.fail "exception should propagate");
      ());
  (* and the cluster is clean afterwards (the abort sent Removes) *)
  match Kv.quiescent cl with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* ---------- driver knobs ---------- *)

module Spec = Sss_experiments.Spec

(* [what], naming [spec]. *)
let named spec what = what ^ " -- " ^ Spec.to_string spec

let test_driver_retry_aborts () =
  (* with retry_aborts, aborted update transactions are re-attempted on the
     same keys; commits should exceed the no-retry run under contention *)
  let s =
    Spec.make ~ro:0.0 ~clients:3 ~warmup:0.002 ~duration:0.02 Sss
      { Config.default with nodes = 3; replication_degree = 1; total_keys = 6 }
  in
  let spec retry = { s with load = { s.load with retry_aborts = retry; seed = 4 } } in
  let no_retry = (Spec.run (spec false)).result and retry = (Spec.run (spec true)).result in
  let named = named (spec false) in
  Alcotest.(check bool) (named "contention produced aborts") true (no_retry.aborted > 0);
  Alcotest.(check bool) (named "both made progress") true
    (retry.committed > 0 && no_retry.committed > 0)

let test_driver_locality_draws_local () =
  let s =
    Spec.make ~ro:1.0 ~clients:2 ~warmup:0.001 ~duration:0.01 Sss
      { Config.default with nodes = 2; replication_degree = 1; total_keys = 16 }
  in
  let spec =
    { s with profile = { s.profile with locality = 1.0 }; load = { s.load with seed = 6 } }
  in
  let r = Spec.run spec and named = named spec in
  let local0 = Kv.local_keys (Option.get r.store.kv) 0 in
  Alcotest.(check bool) (named "progress") true (r.result.committed > 10);
  (* with locality = 1.0, clients on node 0 only ever read node-0 keys *)
  let ok = ref true in
  List.iter
    (fun { Sss_consistency.History.event; _ } ->
      match event with
      | Sss_consistency.History.Read { txn; key; _ } ->
          if txn.Ids.node = 0 && not (Array.exists (( = ) key) local0) then ok := false
      | _ -> ())
    (Sss_consistency.History.events r.store.history);
  Alcotest.(check bool) (named "node-0 clients stayed local") true !ok

(* ---------- utility contracts ---------- *)

let test_pretty_printers () =
  Alcotest.(check string) "vclock" "[1,2,3]"
    (Vclock.to_string (Vclock.of_array [| 1; 2; 3 |]));
  Alcotest.(check string) "genesis" "T<genesis>" (Ids.txn_to_string Ids.genesis);
  let q = Squeue.create () in
  Squeue.insert_read q ~txn:{ Ids.node = 1; local = 2 } ~sid:3;
  Alcotest.(check bool) "squeue pp nonempty" true
    (String.length (Format.asprintf "%a" Squeue.pp q) > 0)

let test_equeue_surface () =
  let q = Equeue.create () in
  let ran = ref 0 in
  let bump _ = incr ran in
  List.iter (fun t -> Equeue.push q ~time:t ~key:0 bump (Obj.repr ())) [ 3e-6; 1e-6; 2e-6 ];
  Alcotest.(check int) "length" 3 (Equeue.length q);
  Alcotest.(check bool) "min_time" true (Equeue.min_time q = 1e-6);
  Alcotest.(check bool) "pop" true (Equeue.pop q);
  Alcotest.(check (float 1e-18)) "popped_time" 1e-6 (Equeue.popped_time q);
  Equeue.run_popped q;
  Alcotest.(check int) "payload ran" 1 !ran;
  Alcotest.(check int) "length after pop" 2 (Equeue.length q)

let test_prng_pick () =
  let g = Prng.create ~seed:1 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    let x = Prng.pick g arr in
    Alcotest.(check bool) "member" true (Array.exists (( = ) x) arr)
  done

let test_network_stats_accumulate () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:1 in
  let net =
    Sss_net.Network.create ~size_of:String.length sim rng ~nodes:2
      ~config:Sss_net.Network.default_config
  in
  Sss_net.Network.set_handler net 1 (fun ~src:_ _ -> ());
  Sss_net.Network.send net ~src:0 ~dst:1 "hello";
  Sss_net.Network.send net ~src:0 ~dst:1 "worlds!";
  Sim.run sim;
  let st = Sss_net.Network.stats net in
  Alcotest.(check int) "bytes counted" 12 st.Sss_net.Network.bytes;
  Alcotest.(check int) "sent" 2 st.Sss_net.Network.sent

let () =
  Alcotest.run "api"
    [
      ( "misuse",
        [
          Alcotest.test_case "double commit" `Quick test_double_commit_rejected;
          Alcotest.test_case "read after finish" `Quick test_read_after_finish_rejected;
          Alcotest.test_case "abort after commit" `Quick test_abort_after_commit_rejected;
          Alcotest.test_case "unknown key" `Quick test_unknown_key_rejected;
        ] );
      ( "with_txn",
        [
          Alcotest.test_case "commits" `Quick test_with_txn_commits;
          Alcotest.test_case "retries conflict" `Quick test_with_txn_retries_conflict;
          Alcotest.test_case "exception aborts" `Quick test_with_txn_exception_aborts;
        ] );
      ( "driver",
        [
          Alcotest.test_case "retry aborts" `Quick test_driver_retry_aborts;
          Alcotest.test_case "locality" `Quick test_driver_locality_draws_local;
        ] );
      ( "utilities",
        [
          Alcotest.test_case "pretty printers" `Quick test_pretty_printers;
          Alcotest.test_case "equeue surface" `Quick test_equeue_surface;
          Alcotest.test_case "prng pick" `Quick test_prng_pick;
          Alcotest.test_case "network byte stats" `Quick test_network_stats_accumulate;
        ] );
    ]
