(* Tests for the three competitor key-value stores re-implemented per §V:
   2PC-baseline (external consistent, read-only can abort), Walter (PSI,
   abort-free reads, long forks possible), and ROCOCO (two-round, abort-free
   updates, round-based read-only). *)

open Sss_sim
open Sss_data
open Sss_consistency
module Store = Sss_experiments.Store

let config ?(nodes = 3) ?(degree = 1) ?(keys = 24) ?(seed = 1) () =
  { Sss_kv.Config.default with nodes; replication_degree = degree; total_keys = keys; seed }

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail (Printf.sprintf "%s: %s" what msg)

(* A 4-node workload run of [system]: 4 clients per node, 5 ms warmup,
   50 ms measured.  Returns the run and a [check_ok] that names the
   run's spec. *)
let drive system ~degree ~keys ~ro ~seed =
  let spec =
    Sss_experiments.Spec.make ~ro ~clients:4 ~duration:0.05 system
      (config ~nodes:4 ~degree ~keys ~seed ())
  in
  let fail what msg =
    Alcotest.failf "%s: %s -- %s" what msg (Sss_experiments.Spec.to_string spec)
  in
  (Sss_experiments.Spec.run spec, fun what -> Result.iter_error (fail what))

(* ---------- 2PC-baseline ---------- *)

let test_twopc_basic () =
  let sim = Sim.create () in
  let cl = Twopc_kv.Twopc.create sim (config ()) in
  let later = ref "" in
  Sim.spawn sim (fun () ->
      let t = Twopc_kv.Twopc.begin_txn cl ~node:0 ~read_only:false in
      Alcotest.(check string) "initial" "init:3" (Twopc_kv.Twopc.read t 3);
      Twopc_kv.Twopc.write t 3 "updated";
      Alcotest.(check bool) "commits" true (Twopc_kv.Twopc.commit t);
      let t2 = Twopc_kv.Twopc.begin_txn cl ~node:1 ~read_only:true in
      later := Twopc_kv.Twopc.read t2 3;
      ignore (Twopc_kv.Twopc.commit t2));
  Sim.run sim;
  Alcotest.(check string) "visible" "updated" !later;
  check_ok "external consistency" (Checker.external_consistency (Twopc_kv.Twopc.history cl));
  check_ok "quiescent" (Twopc_kv.Twopc.quiescent cl)

let test_twopc_workload () =
  let r, check_run = drive Store.Twopc ~degree:2 ~keys:24 ~ro:0.5 ~seed:5 in
  Alcotest.(check bool) "progress" true (r.result.committed > 50);
  let h = r.store.history in
  check_run "external consistency" (Checker.external_consistency h);
  check_run "serializability" (Checker.serializability h);
  check_run "no lost updates" (Checker.no_lost_updates h);
  check_run "quiescent" (r.store.quiescent ())

let test_twopc_read_only_can_abort () =
  (* tiny key space: read-only validation conflicts must appear *)
  let r, check_run = drive Store.Twopc ~degree:2 ~keys:8 ~ro:0.5 ~seed:3 in
  Alcotest.(check bool)
    (Printf.sprintf "aborts under contention (%d)" r.result.aborted)
    true (r.result.aborted > 0);
  (* the defining contrast with SSS: 2PC-baseline aborts read-only txns *)
  (match Checker.read_only_abort_free r.store.history with
  | Ok () -> Alcotest.fail "expected some read-only aborts in 2PC-baseline"
  | Error _ -> ());
  check_run "still externally consistent" (Checker.external_consistency r.store.history)

(* The client is answered only once every write replica applied.  Home
   node 0 writes key 0, whose replicas are nodes 1 and 2; the second
   replica's Applied is dropped until 5 ms (the transport retries it).
   Node 0 and node 1 ack at once, so an ack count that any participant
   fills would answer long before. *)
let test_twopc_awaits_write_replicas () =
  let sim = Sim.create () in
  let cfg = { (config ~nodes:4 ~degree:2 ()) with Sss_kv.Config.fault_tolerance = true } in
  let cl = Twopc_kv.Twopc.create sim cfg in
  let second =
    match Replication.replicas (Twopc_kv.Twopc.repl cl) 0 with
    | [ 1; r ] -> r
    | rs -> Alcotest.failf "key 0 is replicated at [%s]" (String.concat "; " (List.map string_of_int rs))
  in
  let plan =
    {
      Sss_chaos.Chaos.empty with
      rules =
        [
          {
            target = { src = Some second; dst = None; kinds = [ "applied" ] };
            drop = 1.0;
            dup = 0.0;
            delay = 0.0;
            from_ = 0.0;
            until = 0.005;
          };
        ];
    }
  in
  ignore
    (Sss_chaos.Chaos.install sim (Twopc_kv.Twopc.network cl) ~kind_of:Twopc_kv.Twopc.message_kind
       plan
      : Sss_chaos.Chaos.handle);
  let answered = ref None in
  Sim.spawn sim (fun () ->
      let t = Twopc_kv.Twopc.begin_txn cl ~node:0 ~read_only:false in
      Twopc_kv.Twopc.write t 0 "x";
      let ok = Twopc_kv.Twopc.commit t in
      answered := Some (ok, Sim.now sim));
  Sim.run sim;
  match !answered with
  | Some (ok, at) ->
      Alcotest.(check bool) "commits" true ok;
      Alcotest.(check bool) (Printf.sprintf "answered after 5 ms (at %.3f ms)" (at *. 1e3)) true
        (at > 0.005);
      Alcotest.(check string) "the second replica applied" "x"
        (fst (Twopc_kv.Twopc.latest cl ~node:second 0))
  | None -> Alcotest.fail "commit never returned"

(* ---------- Walter ---------- *)

let test_walter_basic () =
  let sim = Sim.create () in
  let cl = Walter_kv.Walter.create sim (config ()) in
  let later = ref "" in
  Sim.spawn sim (fun () ->
      let t = Walter_kv.Walter.begin_txn cl ~node:0 ~read_only:false in
      Alcotest.(check string) "initial" "init:3" (Walter_kv.Walter.read t 3);
      Walter_kv.Walter.write t 3 "updated";
      Alcotest.(check bool) "commits" true (Walter_kv.Walter.commit t);
      (* same-site session: the next transaction sees the write *)
      let t2 = Walter_kv.Walter.begin_txn cl ~node:0 ~read_only:true in
      later := Walter_kv.Walter.read t2 3;
      ignore (Walter_kv.Walter.commit t2));
  Sim.run sim;
  Alcotest.(check string) "visible in session" "updated" !later;
  check_ok "quiescent" (Walter_kv.Walter.quiescent cl)

let test_walter_workload () =
  let r, check_run = drive Store.Walter ~degree:2 ~keys:24 ~ro:0.5 ~seed:7 in
  Alcotest.(check bool) "progress" true (r.result.committed > 50);
  let h = r.store.history in
  (* PSI: intact read-modify-writes and abort-free read-only transactions,
     but NOT serializability (long forks are possible). *)
  check_run "no lost updates" (Checker.no_lost_updates h);
  check_run "read-only abort free" (Checker.read_only_abort_free h);
  check_run "quiescent" (r.store.quiescent ())

let test_walter_weaker_than_serializable () =
  (* Across seeds and a hot key space, PSI should exhibit at least one
     serializability violation (the long fork) — the reason the paper calls
     Walter's guarantee "much weaker" (§V). *)
  let violations = ref 0 in
  for seed = 1 to 8 do
    let r, check_run = drive Store.Walter ~degree:2 ~keys:8 ~ro:0.6 ~seed in
    (match Checker.serializability r.store.history with Ok () -> () | Error _ -> incr violations);
    check_run "no lost updates" (Checker.no_lost_updates r.store.history)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "observed PSI anomalies in %d/8 runs" !violations)
    true (!violations > 0)

(* ---------- implicit genesis (every baseline) ---------- *)

module type WITH_LATEST = sig
  include Sss_kv.Runtime.STORE

  val latest : cluster -> node:Ids.node -> Ids.key -> string * Ids.txn

  val per_key : int
  (** Column words a replica key costs its node's store, key array included. *)
end

(* Genesis is implicit: a key nobody wrote holds its column words and
   nothing else, so an idle store grows by exactly [per_key] words per
   added replica key, yet reads return the key's boot value from the
   genesis writer, also after a restart from a checkpoint (the log is
   dirtied at 0 and checkpointed every 5 ms; the key's only replica
   crashes at 50 ms and restarts at 60 ms), and the two written keys keep
   their own values and writers.  A key the node does not replicate is
   still refused. *)
module Implicit_genesis (S : WITH_LATEST) = struct
  let genesis what key (value, writer) =
    Alcotest.(check string) (what ^ " reads its boot value") (Ids.boot_value key) value;
    Alcotest.(check bool) (what ^ " reads the genesis writer") true
      (Ids.equal_txn writer Ids.genesis)

  let test () =
    let idle keys = S.store_words (S.create (Sim.create ()) (config ~keys ())) in
    Alcotest.(check int) "an idle store grows by its column words per replica key"
      (S.per_key * (2400 - 24))
      (idle 2400 - idle 24);
    let sim = Sim.create () in
    let cl =
      S.create sim { (config ()) with durability = true; checkpoint_interval = 0.005 }
    in
    let k = 5 and other = 6 in
    let replica = List.hd (Replication.replicas (S.repl cl) k) in
    let stranger = (replica + 1) mod 3 in
    let k2 = List.find (fun x -> x <> k && x <> other) (Array.to_list (S.local_keys cl replica)) in
    let writer = ref Ids.genesis and writer2 = ref Ids.genesis in
    let before = ref "" and after = ref "" in
    let read_at key =
      let t = S.begin_txn cl ~node:stranger ~read_only:true in
      let v = S.read t key in
      Alcotest.(check bool) "read-only commits" true (S.commit t);
      v
    in
    Sim.spawn sim (fun () ->
        before := read_at k;
        let t = S.begin_txn cl ~node:replica ~read_only:false in
        S.write t k "new";
        writer := S.txn_id t;
        Alcotest.(check bool) "commits" true (S.commit t);
        let t = S.begin_txn cl ~node:replica ~read_only:false in
        S.write t k2 "newer";
        writer2 := S.txn_id t;
        Alcotest.(check bool) "second commits" true (S.commit t);
        Sim.sleep sim 0.1;
        after := read_at other);
    Sim.schedule sim ~delay:0.05 (fun () ->
        Sss_net.Network.crash (S.network cl) replica;
        S.crash_node cl replica);
    Sim.schedule sim ~delay:0.06 (fun () -> S.restart_node cl replica);
    Sim.run sim;
    Alcotest.(check string) "unwritten key read before the crash" (Ids.boot_value k) !before;
    Alcotest.(check string) "unwritten key read after the restart" (Ids.boot_value other) !after;
    let read_writers key =
      List.filter_map
        (fun { History.event; _ } ->
          match event with
          | History.Read { key = k'; writer; _ } when k' = key -> Some writer
          | _ -> None)
        (History.events (S.history cl))
    in
    List.iter
      (fun key ->
        Alcotest.(check bool) "the reads saw the genesis writer" true
          (List.exists (Ids.equal_txn Ids.genesis) (read_writers key)))
      [ k; other ];
    genesis "untouched key after the restart" other (S.latest cl ~node:replica other);
    let value, w = S.latest cl ~node:replica k in
    Alcotest.(check string) "written key" "new" value;
    Alcotest.(check bool) "written key's writer" true (Ids.equal_txn w !writer);
    let value, w = S.latest cl ~node:replica k2 in
    Alcotest.(check string) "second written key" "newer" value;
    Alcotest.(check bool) "second written key's writer" true (Ids.equal_txn w !writer2);
    (match S.latest cl ~node:stranger k with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "a key the node does not replicate must raise");
    check_ok "quiescent" (S.quiescent cl)
end

(* The store gauge weighs what the heap holds: after a small workload,
   within 10% of [Obj.reachable_words] of each node's store, summed over
   the nodes.  SSS's [Mvstore] gauge is held to the same bar. *)
let test_gauge system () =
  let spec =
    Sss_experiments.Spec.make ~clients:4 ~duration:0.05 system (config ~keys:200 ~seed:4 ())
  in
  let store_repr = ref (fun _ -> Obj.repr ()) in
  let setup (s : Store.t) = store_repr := s.store_repr in
  let r = Sss_experiments.Spec.run ~setup spec in
  let weigh a n = a + Obj.reachable_words (!store_repr n) in
  let heap = List.fold_left weigh 0 (List.init spec.config.nodes Fun.id) in
  if abs (r.store_words - heap) * 10 > heap then
    Alcotest.failf "store_words %d vs %d reachable words: off by more than 10%% -- %s"
      r.store_words heap (Sss_experiments.Spec.to_string spec)

module Twopc_genesis = Implicit_genesis (struct
  include Twopc_kv.Twopc

  let per_key = 3  (* key, value, writer *)
end)

module Walter_genesis = Implicit_genesis (struct
  include Walter_kv.Walter

  let per_key = 2  (* key, head *)
end)

module Rococo_genesis = Implicit_genesis (struct
  include Rococo_kv.Rococo

  let per_key = 5  (* key, value, writer, pending, ready *)
end)

(* ---------- ROCOCO ---------- *)

let test_rococo_basic () =
  let sim = Sim.create () in
  let cl = Rococo_kv.Rococo.create sim (config ()) in
  let later = ref "" in
  Sim.spawn sim (fun () ->
      let t = Rococo_kv.Rococo.begin_txn cl ~node:0 ~read_only:false in
      Alcotest.(check string) "initial" "init:3" (Rococo_kv.Rococo.read t 3);
      Rococo_kv.Rococo.write t 3 "updated";
      Alcotest.(check bool) "commits" true (Rococo_kv.Rococo.commit t);
      let t2 = Rococo_kv.Rococo.begin_txn cl ~node:1 ~read_only:true in
      later := Rococo_kv.Rococo.read t2 3;
      ignore (Rococo_kv.Rococo.commit t2));
  Sim.run sim;
  Alcotest.(check string) "visible" "updated" !later;
  check_ok "external consistency" (Checker.external_consistency (Rococo_kv.Rococo.history cl));
  check_ok "quiescent" (Rococo_kv.Rococo.quiescent cl)

let test_rococo_workload () =
  let r, check_run = drive Store.Rococo ~degree:1 ~keys:24 ~ro:0.5 ~seed:11 in
  Alcotest.(check bool) "progress" true (r.result.committed > 50);
  let h = r.store.history in
  check_run "serializability" (Checker.serializability h);
  check_run "external consistency" (Checker.external_consistency h);
  check_run "no lost updates" (Checker.no_lost_updates h);
  check_run "quiescent" (r.store.quiescent ())

(* Durable ROCOCO keeps no state per finished transaction: with
   fixed-size values and no history, the cluster's live words after 2,000
   update transactions exceed those after 200 by at most 2 words per extra
   transaction (a table binding per transaction would cost over 30). *)
let test_rococo_durable_retention () =
  let live n =
    let sim = Sim.create () in
    let cl =
      Rococo_kv.Rococo.create sim
        { (config ()) with durability = true; record_history = false }
    in
    Sim.spawn sim (fun () ->
        for i = 1 to n do
          let t = Rococo_kv.Rococo.begin_txn cl ~node:(i mod 3) ~read_only:false in
          ignore (Rococo_kv.Rococo.read t (i mod 24) : string);
          Rococo_kv.Rococo.write t (i mod 24) "v";
          Alcotest.(check bool) "commits" true (Rococo_kv.Rococo.commit t)
        done);
    Sim.run sim;
    check_ok "quiescent" (Rococo_kv.Rococo.quiescent cl);
    Obj.reachable_words (Obj.repr cl)
  in
  let small = live 200 and large = live 2_000 in
  Alcotest.(check bool)
    (Printf.sprintf "live words %d -> %d within 2 a transaction" small large)
    true
    (large - small <= 2 * 1_800)

(* A durable coordinator re-sends its Commit to the replicas whose acks
   are missing.  Replica 1 holds two of the transaction's pieces and every
   ack it sends before 40 ms is lost (no fault tolerance, so nothing below
   retries): the re-sends must not run the pieces again, and the client is
   answered only once the replica's acks get through. *)
let test_rococo_resent_commit () =
  let sim = Sim.create () in
  let cl =
    Rococo_kv.Rococo.create sim { (config ~nodes:4 ()) with Sss_kv.Config.durability = true }
  in
  let k1, k2 =
    match Array.to_list (Rococo_kv.Rococo.local_keys cl 1) with
    | k1 :: k2 :: _ -> (k1, k2)
    | _ -> Alcotest.fail "node 1 replicates fewer than two keys"
  in
  let plan =
    {
      Sss_chaos.Chaos.empty with
      rules =
        [
          {
            target = { src = Some 1; dst = None; kinds = [ "commit_ack" ] };
            drop = 1.0;
            dup = 0.0;
            delay = 0.0;
            from_ = 0.0;
            until = 0.040;
          };
        ];
    }
  in
  ignore
    (Sss_chaos.Chaos.install sim (Rococo_kv.Rococo.network cl)
       ~kind_of:Rococo_kv.Rococo.message_kind plan
      : Sss_chaos.Chaos.handle);
  let answered = ref None in
  Sim.spawn sim (fun () ->
      let t = Rococo_kv.Rococo.begin_txn cl ~node:0 ~read_only:false in
      List.iter
        (fun k ->
          ignore (Rococo_kv.Rococo.read t k : string);
          Rococo_kv.Rococo.write t k "x")
        [ k1; k2 ];
      let ok = Rococo_kv.Rococo.commit t in
      answered := Some (Rococo_kv.Rococo.txn_id t, ok, Sim.now sim));
  Sim.run sim;
  match !answered with
  | None -> Alcotest.fail "commit never returned"
  | Some (txn, ok, at) ->
      Alcotest.(check bool) "commits" true ok;
      Alcotest.(check bool) (Printf.sprintf "answered after 40 ms (at %.3f ms)" (at *. 1e3)) true
        (at > 0.040);
      List.iter
        (fun k ->
          let installs =
            List.length
              (List.filter
                 (fun { History.event; _ } ->
                   match event with
                   | History.Install { txn = w; key } -> key = k && Ids.equal_txn w txn
                   | _ -> false)
                 (History.events (Rococo_kv.Rococo.history cl)))
          in
          Alcotest.(check int) (Printf.sprintf "key %d installed once" k) 1 installs;
          Alcotest.(check bool) (Printf.sprintf "key %d names the writer" k) true
            (Ids.equal_txn txn (snd (Rococo_kv.Rococo.latest cl ~node:1 k))))
        [ k1; k2 ];
      check_ok "quiescent" (Rococo_kv.Rococo.quiescent cl)

let test_rococo_updates_never_abort () =
  (* hot keys: all aborts must come from the round-based read-only path *)
  let r, check_run = drive Store.Rococo ~degree:1 ~keys:8 ~ro:0.5 ~seed:13 in
  let h = r.store.history in
  (* every aborted txn in the history must be read-only *)
  let events = History.events h in
  let ro_txns = Hashtbl.create 64 in
  List.iter
    (fun { History.event; _ } ->
      match event with
      | History.Begin { txn; ro; _ } -> Hashtbl.replace ro_txns txn ro
      | _ -> ())
    events;
  List.iter
    (fun { History.event; _ } ->
      match event with
      | History.Abort { txn } ->
          Alcotest.(check bool)
            (Printf.sprintf "aborted %s is read-only" (Ids.txn_to_string txn))
            true
            (Hashtbl.find ro_txns txn)
      | _ -> ())
    events;
  check_run "serializability under contention" (Checker.serializability h);
  check_run "quiescent" (r.store.quiescent ())

let () =
  Alcotest.run "baselines"
    [
      ( "twopc",
        [
          Alcotest.test_case "basic" `Quick test_twopc_basic;
          Alcotest.test_case "workload" `Quick test_twopc_workload;
          Alcotest.test_case "read-only can abort" `Quick test_twopc_read_only_can_abort;
          Alcotest.test_case "answers after every write replica" `Quick
            test_twopc_awaits_write_replicas;
          Alcotest.test_case "implicit genesis" `Quick Twopc_genesis.test;
          Alcotest.test_case "store gauge matches the heap" `Quick (test_gauge Twopc);
        ] );
      ( "walter",
        [
          Alcotest.test_case "basic" `Quick test_walter_basic;
          Alcotest.test_case "workload" `Quick test_walter_workload;
          Alcotest.test_case "weaker than serializable" `Quick test_walter_weaker_than_serializable;
          Alcotest.test_case "implicit genesis" `Quick Walter_genesis.test;
          Alcotest.test_case "store gauge matches the heap" `Quick (test_gauge Walter);
        ] );
      ( "rococo",
        [
          Alcotest.test_case "basic" `Quick test_rococo_basic;
          Alcotest.test_case "workload" `Quick test_rococo_workload;
          Alcotest.test_case "updates never abort" `Quick test_rococo_updates_never_abort;
          Alcotest.test_case "durable ROCOCO retains nothing per transaction" `Quick
            test_rococo_durable_retention;
          Alcotest.test_case "re-sent commit runs once and answers last" `Quick
            test_rococo_resent_commit;
          Alcotest.test_case "implicit genesis" `Quick Rococo_genesis.test;
          Alcotest.test_case "store gauge matches the heap" `Quick (test_gauge Rococo);
        ] );
      ("sss", [ Alcotest.test_case "store gauge matches the heap" `Quick (test_gauge Sss) ]);
    ]
