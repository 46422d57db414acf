(* Second-round test battery: paper-mode behaviour, garbage collection,
   workload-generator properties, statistics, and protocol edge cases. *)

open Sss_sim
open Sss_data
open Sss_kv
open Sss_consistency

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail (Printf.sprintf "%s: %s" what msg)

let make ?(nodes = 3) ?(degree = 1) ?(keys = 24) ?(seed = 1) ?(strict = true) () =
  let sim = Sim.create () in
  let config =
    {
      Config.default with
      nodes;
      replication_degree = degree;
      total_keys = keys;
      seed;
      strict_order = strict;
    }
  in
  (sim, Kv.create sim config)

let run_workload sim cl ~nodes ~keys ~ro ~seed ~duration =
  let ops =
    {
      Sss_workload.Driver.begin_txn = (fun ~node ~read_only -> Kv.begin_txn cl ~node ~read_only);
      read = Kv.read;
      write = Kv.write;
      commit = Kv.commit;
    }
  in
  Sss_workload.Driver.run sim ~nodes ~total_keys:keys
    ~local_keys:(fun n -> Replication.keys_at cl.State.repl n)
    ~profile:(Sss_workload.Driver.paper_profile ~read_only_ratio:ro)
    ~load:
      {
        Sss_workload.Driver.default_load with
        clients_per_node = 4;
        warmup = 0.005;
        duration;
        seed;
      }
    ~ops

(* ---------- paper mode ---------- *)

let test_paper_mode_liveness_and_core_properties () =
  (* Paper mode must stay live and keep the per-transaction guarantees
     (no lost updates, abort-free reads); full serializability under hot
     contention is exactly what it gives up (DESIGN.md findings). *)
  let sim, cl = make ~nodes:4 ~degree:2 ~keys:32 ~seed:3 ~strict:false () in
  let r = run_workload sim cl ~nodes:4 ~keys:32 ~ro:0.5 ~seed:3 ~duration:0.05 in
  Alcotest.(check bool) "progress" true (r.Sss_workload.Driver.committed > 100);
  let h = Kv.history cl in
  check_ok "no lost updates" (Checker.no_lost_updates h);
  check_ok "read-only abort free" (Checker.read_only_abort_free h);
  check_ok "quiescent" (Kv.quiescent cl)

let test_paper_mode_faster_on_long_reads () =
  (* The ablation in one assertion: under long read-only scans, the paper's
     literal release outperforms the hardened ordering. *)
  let throughput strict =
    let sim, cl = make ~nodes:4 ~degree:1 ~keys:64 ~seed:5 ~strict () in
    let ops =
      {
        Sss_workload.Driver.begin_txn = (fun ~node ~read_only -> Kv.begin_txn cl ~node ~read_only);
        read = Kv.read;
        write = Kv.write;
        commit = Kv.commit;
      }
    in
    let r =
      Sss_workload.Driver.run sim ~nodes:4 ~total_keys:64
        ~local_keys:(fun n -> Replication.keys_at cl.State.repl n)
        ~profile:
          { Sss_workload.Driver.read_only_ratio = 0.8; update_ops = 2; ro_ops = 12;
            locality = 0.0 }
        ~load:
          {
            Sss_workload.Driver.default_load with
            clients_per_node = 6;
            warmup = 0.005;
            duration = 0.04;
            seed = 5;
          }
        ~ops
    in
    r.Sss_workload.Driver.throughput
  in
  let paper = throughput false and hardened = throughput true in
  Alcotest.(check bool)
    (Printf.sprintf "paper mode >= hardened under long scans (%.0f vs %.0f)" paper hardened)
    true (paper >= hardened)

(* ---------- garbage collection ---------- *)

(* A small, hot key space (8 keys, 20% read-only) grows chains and logs
   fastest.  The watermark collector, on by default, keeps only what live
   snapshots can reach, so state stays bounded without weakening any
   guarantee.  GC is passive, so a GC-off run of the same seed follows the
   same trajectory and shows what would otherwise be retained. *)
let test_gc_bounds_state () =
  let run gc =
    let sim = Sim.create () in
    let cl =
      Kv.create sim
        { Config.default with nodes = 3; replication_degree = 1; total_keys = 8; seed = 11; gc }
    in
    let r = run_workload sim cl ~nodes:3 ~keys:8 ~ro:0.2 ~seed:11 ~duration:0.08 in
    (r, cl)
  in
  let r, cl = run true and _, off = run false in
  Alcotest.(check bool) "progress" true (r.Sss_workload.Driver.committed > 200);
  Array.iteri
    (fun i (n : State.node) ->
      let kept = Mvstore.version_count n.State.store
      and unbounded = Mvstore.version_count off.State.nodes.(i).State.store in
      Alcotest.(check bool)
        (Printf.sprintf "node %d nlog bounded (%d)" n.State.id (Nlog.size n.State.nlog))
        true
        (Nlog.size n.State.nlog < 2048);
      Alcotest.(check bool)
        (Printf.sprintf "node %d chains bounded (%d versions, %d without GC)" n.State.id kept
           unbounded)
        true
        (4 * kept < unbounded))
    cl.State.nodes;
  check_ok "still externally consistent under GC"
    (Checker.external_consistency (Kv.history cl));
  check_ok "quiescent" (Kv.quiescent cl)

(* ---------- replication degree 3 with history ---------- *)

let test_degree3_consistency () =
  let sim, cl = make ~nodes:5 ~degree:3 ~keys:20 ~seed:21 () in
  let r = run_workload sim cl ~nodes:5 ~keys:20 ~ro:0.8 ~seed:21 ~duration:0.04 in
  Alcotest.(check bool) "progress" true (r.Sss_workload.Driver.committed > 100);
  let h = Kv.history cl in
  check_ok "external consistency" (Checker.external_consistency h);
  check_ok "serializability" (Checker.serializability h);
  check_ok "quiescent" (Kv.quiescent cl)

(* ---------- repeat contact: multi-read snapshot stability ---------- *)

let test_snapshot_stability_under_churn () =
  let sim, cl = make ~nodes:2 ~degree:1 ~keys:4 ~seed:2 () in
  let stable = ref true in
  (* churn: constant updates of all keys *)
  let stop = ref false in
  Sim.spawn sim (fun () ->
      let rng = Prng.create ~seed:9 in
      while not !stop do
        let t = Kv.begin_txn cl ~node:1 ~read_only:false in
        let k = Prng.int rng 4 in
        ignore (Kv.read t k);
        Kv.write t k "x";
        ignore (Kv.commit t);
        Sim.sleep sim 20e-6
      done);
  (* a reader that re-reads every key several times: all repeats must agree *)
  Sim.spawn sim (fun () ->
      Sim.sleep sim 0.002;
      let t = Kv.begin_txn cl ~node:0 ~read_only:true in
      let first = Array.init 4 (fun k -> Kv.read t k) in
      for _ = 1 to 3 do
        Sim.sleep sim 0.0005;
        for k = 0 to 3 do
          if Kv.read t k <> first.(k) then stable := false
        done
      done;
      ignore (Kv.commit t);
      stop := true);
  Sim.run sim;
  Alcotest.(check bool) "re-reads returned identical versions" true !stable;
  check_ok "external consistency" (Checker.external_consistency (Kv.history cl))

(* ---------- workload generator properties ---------- *)

let zipf_is_monotone =
  QCheck.Test.make ~name:"zipf probabilities decrease with rank" ~count:50
    QCheck.(pair (int_range 2 200) (float_range 0.1 1.2))
    (fun (n, theta) ->
      let z = Sss_workload.Zipf.create ~n ~theta in
      let ok = ref true in
      for i = 1 to n - 1 do
        if
          Sss_workload.Zipf.probability z i
          > Sss_workload.Zipf.probability z (i - 1) +. 1e-12
        then ok := false
      done;
      !ok)

let zipf_sums_to_one =
  QCheck.Test.make ~name:"zipf probabilities sum to 1" ~count:30
    QCheck.(int_range 1 500)
    (fun n ->
      let z = Sss_workload.Zipf.create ~n ~theta:0.99 in
      let sum = ref 0.0 in
      for i = 0 to n - 1 do
        sum := !sum +. Sss_workload.Zipf.probability z i
      done;
      abs_float (!sum -. 1.0) < 1e-9)

let zipf_skews_head () =
  let z = Sss_workload.Zipf.create ~n:1000 ~theta:0.99 in
  let rng = Prng.create ~seed:5 in
  let head = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Sss_workload.Zipf.sample z rng < 100 then incr head
  done;
  (* with theta=.99 the first 10% of items carry well over half the mass *)
  Alcotest.(check bool)
    (Printf.sprintf "head heavy (%d/%d)" !head n)
    true
    (float_of_int !head /. float_of_int n > 0.5)

let stats_percentile_properties =
  QCheck.Test.make ~name:"stats percentiles are order statistics" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (float_range 0.0 100.0))
    (fun xs ->
      let s = Sss_workload.Stats.create () in
      List.iter (Sss_workload.Stats.add s) xs;
      let sorted = List.sort Float.compare xs in
      let max_x = List.nth sorted (List.length xs - 1) in
      let min_x = List.hd sorted in
      Sss_workload.Stats.percentile s 1.0 = max_x
      && Sss_workload.Stats.min s = min_x
      && Sss_workload.Stats.percentile s 0.5 >= min_x
      && Sss_workload.Stats.percentile s 0.5 <= max_x)

let test_stats_interleaved_add_query () =
  let s = Sss_workload.Stats.create () in
  Sss_workload.Stats.add s 5.0;
  Alcotest.(check (float 1e-9)) "p50 single" 5.0 (Sss_workload.Stats.percentile s 0.5);
  Sss_workload.Stats.add s 1.0;
  Sss_workload.Stats.add s 9.0;
  Alcotest.(check (float 1e-9)) "median after more adds" 5.0 (Sss_workload.Stats.percentile s 0.5);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Sss_workload.Stats.mean s);
  Sss_workload.Stats.clear s;
  Alcotest.(check int) "cleared" 0 (Sss_workload.Stats.count s)

(* ---------- network under protocol load ---------- *)

let test_remove_priority_matters () =
  (* sanity: the protocol tags Remove/Finalize as highest priority *)
  Alcotest.(check bool) "remove beats read" true
    (Sss_kv.Message.priority (Sss_kv.Message.Remove { txn = Ids.genesis })
    < Sss_kv.Message.priority
        (Sss_kv.Message.Read_request
           {
             req = 0;
             txn = Ids.genesis;
             key = 0;
             vc = Vclock.zero 1;
             has_read = [| false |];
             is_update = false;
           }))

(* ---------- determinism across modes ---------- *)

let test_hardening_fixes_documented_anomaly () =
  (* The centrepiece of DESIGN.md §8.4: at torture-level contention the
     paper's literal per-key snapshot-queue release produces a
     serialization cycle the checker catches; the hardened ordering removes
     it on the very same workload and seed. *)
  let run strict =
    let sim, cl = make ~nodes:4 ~degree:2 ~keys:8 ~seed:7 ~strict () in
    let _ = run_workload sim cl ~nodes:4 ~keys:8 ~ro:0.5 ~seed:7 ~duration:0.04 in
    Checker.serializability (Kv.history cl)
  in
  (match run false with
  | Error _ -> ()  (* the witness: Adya divergence under the paper's rules *)
  | Ok () -> Alcotest.fail "expected the documented paper-mode anomaly at seed 7");
  match run true with
  | Ok () -> ()
  | Error msg -> Alcotest.fail (Printf.sprintf "hardened mode should be clean: %s" msg)

let test_compression_reduces_traffic () =
  let run compress =
    let sim = Sim.create () in
    let config =
      { Config.default with nodes = 3; total_keys = 24; compress_metadata = compress;
        record_history = false }
    in
    let cl = Kv.create sim config in
    let r = run_workload sim cl ~nodes:3 ~keys:24 ~ro:0.5 ~seed:8 ~duration:0.02 in
    (r.Sss_workload.Driver.committed, (Kv.network_stats cl).Sss_net.Network.bytes)
  in
  let committed_c, bytes_c = run true in
  let committed_r, bytes_r = run false in
  Alcotest.(check int) "same execution either way" committed_c committed_r;
  Alcotest.(check bool)
    (Printf.sprintf "compressed %d < raw %d bytes" bytes_c bytes_r)
    true (bytes_c < bytes_r)

let test_mode_determinism () =
  let fingerprint strict =
    let sim, cl = make ~nodes:3 ~degree:2 ~keys:16 ~seed:33 ~strict () in
    let r = run_workload sim cl ~nodes:3 ~keys:16 ~ro:0.5 ~seed:33 ~duration:0.03 in
    (r.Sss_workload.Driver.committed, r.Sss_workload.Driver.aborted)
  in
  Alcotest.(check (pair int int)) "strict deterministic" (fingerprint true) (fingerprint true);
  Alcotest.(check (pair int int)) "paper deterministic" (fingerprint false) (fingerprint false)

let test_experiments_smoke () =
  (* every system runs through the experiment harness and reports sane
     numbers (tiny scale) *)
  List.iter
    (fun sys ->
      let o =
        Sss_experiments.Experiments.run
          {
            Sss_experiments.Experiments.default_params with
            system = sys;
            nodes = 3;
            degree = 1;
            keys = 60;
            clients = 3;
            warmup = 0.002;
            duration = 0.01;
          }
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s throughput > 0"
           (Sss_experiments.Experiments.system_name sys))
        true
        (o.Sss_experiments.Experiments.throughput > 0.0);
      Alcotest.(check bool) "latency sane" true
        (o.Sss_experiments.Experiments.mean_latency > 0.0
        && o.Sss_experiments.Experiments.mean_latency < 0.01))
    [
      Sss_experiments.Experiments.Sss;
      Sss_experiments.Experiments.Walter;
      Sss_experiments.Experiments.Twopc;
      Sss_experiments.Experiments.Rococo;
    ]

let () =
  Alcotest.run "more"
    [
      ( "modes",
        [
          Alcotest.test_case "paper mode core properties" `Quick
            test_paper_mode_liveness_and_core_properties;
          Alcotest.test_case "paper mode faster on long reads" `Quick
            test_paper_mode_faster_on_long_reads;
          Alcotest.test_case "mode determinism" `Quick test_mode_determinism;
          Alcotest.test_case "metadata compression telemetry" `Quick
            test_compression_reduces_traffic;
          Alcotest.test_case "hardening fixes documented anomaly" `Quick
            test_hardening_fixes_documented_anomaly;
        ] );
      ( "experiments",
        [ Alcotest.test_case "harness smoke, all systems" `Quick test_experiments_smoke ] );
      ( "gc",
        [ Alcotest.test_case "bounded state, same guarantees" `Quick test_gc_bounds_state ] );
      ( "protocol",
        [
          Alcotest.test_case "degree-3 consistency" `Quick test_degree3_consistency;
          Alcotest.test_case "snapshot stable under churn" `Quick
            test_snapshot_stability_under_churn;
          Alcotest.test_case "remove priority" `Quick test_remove_priority_matters;
        ] );
      ( "workload",
        [
          QCheck_alcotest.to_alcotest zipf_is_monotone;
          QCheck_alcotest.to_alcotest zipf_sums_to_one;
          Alcotest.test_case "zipf skews head" `Quick zipf_skews_head;
          QCheck_alcotest.to_alcotest stats_percentile_properties;
          Alcotest.test_case "stats interleaved" `Quick test_stats_interleaved_add_query;
        ] );
    ]
