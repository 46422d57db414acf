(* Second-round test battery: paper-mode behaviour, garbage collection,
   workload-generator properties, statistics, and protocol edge cases. *)

open Sss_sim
open Sss_data
open Sss_kv
open Sss_consistency

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail (Printf.sprintf "%s: %s" what msg)

let config ?(nodes = 3) ?(degree = 1) ?(keys = 24) ?(seed = 1) ?(strict = true) () =
  { Config.default with nodes; replication_degree = degree; total_keys = keys; seed;
    strict_order = strict }

let make ?nodes ?degree ?keys ?seed () =
  let sim = Sim.create () in
  (sim, Kv.create sim (config ?nodes ?degree ?keys ?seed ()))

module Spec = Sss_experiments.Spec

(* SSS on [config]: 4 clients per node, [ro] read-only, 5 ms warmup,
   [duration] measured. *)
let sss ~ro ~duration config = Spec.make ~ro ~clients:4 ~duration Sss config

(* Drive [spec]: its run, and a [check_ok] that names the spec. *)
let drive spec =
  let fail what msg = Alcotest.failf "%s: %s -- %s" what msg (Spec.to_string spec) in
  (Spec.run spec, fun what -> Result.iter_error (fail what))

(* ---------- paper mode ---------- *)

let test_paper_mode_liveness_and_core_properties () =
  (* Paper mode must stay live and keep the per-transaction guarantees
     (no lost updates, abort-free reads); full serializability under hot
     contention is exactly what it gives up (DESIGN.md findings). *)
  let r, check_run =
    drive (sss ~ro:0.5 ~duration:0.05 (config ~nodes:4 ~degree:2 ~keys:32 ~seed:3 ~strict:false ()))
  in
  Alcotest.(check bool) "progress" true (r.result.committed > 100);
  check_run "no lost updates" (Checker.no_lost_updates r.store.history);
  check_run "read-only abort free" (Checker.read_only_abort_free r.store.history);
  check_run "quiescent" (r.store.quiescent ())

let test_paper_mode_faster_on_long_reads () =
  (* The ablation in one assertion: under long read-only scans, the paper's
     literal release outperforms the hardened ordering. *)
  let throughput strict =
    let config = config ~nodes:4 ~keys:64 ~seed:5 ~strict () in
    let s = Spec.make ~ro:0.8 ~clients:6 ~duration:0.04 Sss config in
    (Spec.run { s with profile = { s.profile with ro_ops = 12 } }).result.throughput
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
    let config = { (config ~keys:8 ~seed:11 ()) with gc } in
    let r, check_run = drive (sss ~ro:0.2 ~duration:0.08 config) in
    (r, Option.get r.store.kv, check_run)
  in
  let r, cl, check_run = run true and _, off, _ = run false in
  Alcotest.(check bool) "progress" true (r.result.committed > 200);
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
  check_run "still externally consistent under GC" (Checker.external_consistency r.store.history);
  check_run "quiescent" (r.store.quiescent ())

(* ---------- replication degree 3 with history ---------- *)

let test_degree3_consistency () =
  let r, check_run =
    drive (sss ~ro:0.8 ~duration:0.04 (config ~nodes:5 ~degree:3 ~keys:20 ~seed:21 ()))
  in
  Alcotest.(check bool) "progress" true (r.result.committed > 100);
  check_run "external consistency" (Checker.external_consistency r.store.history);
  check_run "serializability" (Checker.serializability r.store.history);
  check_run "quiescent" (r.store.quiescent ())

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

(* Message sizes priced through the clock codec, pinned so the network's
   byte accounting cannot drift: the clock holds one-, two- and three-byte
   varint entries (9 bytes plus a 2-byte length, or 40 raw). *)
let test_wire_size_pins () =
  let module M = Sss_kv.Message in
  let t = { Ids.node = 2; local = 7 } in
  let vc = Vclock.of_array [| 0; 63; 64; 8191; 8192 |] in
  let prepare =
    M.Prepare
      {
        txn = t;
        coord = 2;
        vc;
        rs = [ (3, Ids.genesis); (9, t) ];
        ws = [ (4, "v4"); (5, "value-5") ];
        propagated = [ (t, 1) ];
      }
  in
  let vote = M.Vote { txn = t; ok = true; vc } in
  let sizes m = (M.wire_size ~compress:true m, M.wire_size ~compress:false m) in
  Alcotest.(check (pair int int)) "prepare" (100, 129) (sizes prepare);
  Alcotest.(check (pair int int)) "vote" (36, 65) (sizes vote)

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
    let s = sss ~ro:0.5 ~duration:0.04 (config ~nodes:4 ~degree:2 ~keys:8 ~seed:7 ~strict ()) in
    Checker.serializability (Spec.run s).store.history
  in
  (match run false with
  | Error _ -> ()  (* the witness: Adya divergence under the paper's rules *)
  | Ok () -> Alcotest.fail "expected the documented paper-mode anomaly at seed 7");
  match run true with
  | Ok () -> ()
  | Error msg -> Alcotest.fail (Printf.sprintf "hardened mode should be clean: %s" msg)

let test_compression_reduces_traffic () =
  let run compress =
    let s =
      sss ~ro:0.5 ~duration:0.02
        { Config.default with nodes = 3; total_keys = 24; compress_metadata = compress;
          record_history = false }
    in
    let r = Spec.run { s with load = { s.load with seed = 8 } } in
    (r.result.committed, r.network.bytes)
  in
  let committed_c, bytes_c = run true in
  let committed_r, bytes_r = run false in
  Alcotest.(check int) "same execution either way" committed_c committed_r;
  Alcotest.(check bool)
    (Printf.sprintf "compressed %d < raw %d bytes" bytes_c bytes_r)
    true (bytes_c < bytes_r)

let test_mode_determinism () =
  let fingerprint strict =
    let s = sss ~ro:0.5 ~duration:0.03 (config ~nodes:3 ~degree:2 ~keys:16 ~seed:33 ~strict ()) in
    let r = Spec.run s in
    (r.result.committed, r.result.aborted)
  in
  Alcotest.(check (pair int int)) "strict deterministic" (fingerprint true) (fingerprint true);
  Alcotest.(check (pair int int)) "paper deterministic" (fingerprint false) (fingerprint false)

let test_experiments_smoke () =
  (* every system runs through the experiment harness and reports sane
     numbers (tiny scale) *)
  let module E = Sss_experiments.Experiments in
  List.iter
    (fun system ->
      let s = E.base_spec E.Full in
      let spec =
        {
          s with
          system;
          config = { s.config with nodes = 3; replication_degree = 1; total_keys = 60 };
          load = { s.load with clients_per_node = 3; warmup = 0.002; duration = 0.01 };
        }
      in
      let o = E.run spec in
      let line = Spec.to_string spec in
      Alcotest.(check bool) (line ^ ": throughput > 0") true (o.throughput > 0.0);
      Alcotest.(check bool) (line ^ ": latency sane") true
        (o.mean_latency > 0.0 && o.mean_latency < 0.01))
    E.[ Sss; Walter; Twopc; Rococo ]

(* [Spec.run]'s contract with [setup], which the tests' helpers rely on:
   [setup] runs before the first event, after the plan is installed and
   before any of it fires.  A crash planned at time 0 is pending when
   [setup] looks, and fires ahead of a callback [setup] schedules at 0. *)
let test_spec_setup_before_first_event () =
  let plan = Sss_chaos.Chaos.crash_restart ~seed:1 ~node:1 ~at:0.0 ~restart_at:0.001 in
  let config = { (config ()) with fault_tolerance = true } in
  let spec = Spec.make ~plan ~clients:2 ~duration:0.005 Sss config in
  let named what = what ^ " -- " ^ Spec.to_string spec in
  let at_setup = ref None and crashed_first = ref false in
  let setup (s : Sss_experiments.Store.t) =
    let crashed () = Sss_net.Network.is_crashed (Kv.network (Option.get s.kv)) 1 in
    at_setup := Some (Sim.events_processed s.sim, Sim.now s.sim, crashed ());
    Sim.schedule_callback s.sim ~delay:0.0 (fun () -> crashed_first := crashed ())
  in
  let r = Spec.run ~setup spec in
  Alcotest.(check (option (triple int (float 0.0) bool)))
    (named "setup: no event run, time 0, the crash pending") (Some (0, 0.0, false)) !at_setup;
  Alcotest.(check bool) (named "the plan's crash fired before setup's callback") true
    !crashed_first;
  Alcotest.(check int) (named "the plan crashed once") 1 (Option.get r.chaos).crashes

(* [Spec.run] refuses a spec [Spec.check] rejects with [Spec.Invalid],
   before it builds a simulator: [setup] never runs.  A valid spec without
   a plan passes the check without allocating. *)
let test_spec_run_refuses_invalid () =
  let base = Spec.make ~clients:2 ~duration:0.005 Sss (config ~nodes:4 ()) in
  Alcotest.(check (result unit string)) "the base spec is runnable" (Ok ()) (Spec.check base);
  (* a valid spec is checked without allocating, with or without a plan *)
  let crash = Sss_chaos.Chaos.crash_restart ~seed:1 ~node:2 ~at:0.001 ~restart_at:0.002 in
  let lossy =
    { crash with
      rules =
        [ { target = { src = Some 0; dst = None; kinds = [ "prepare" ] }; drop = 0.1; dup = 0.0;
            delay = 0.001; from_ = 0.0; until = 0.004 } ] }
  in
  List.iter
    (fun (what, spec) ->
      let w0 = Sim.allocated_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Spec.check spec))
      done;
      let w = Sim.allocated_words () -. w0 in
      if w > 32. then Alcotest.failf "1,000 checks %s allocated %.0f words" what w)
    [ ("without a plan", base); ("with a crash plan", { base with plan = Some crash });
      ("with a crash plan and a rule", { base with plan = Some lossy }) ];
  List.iter
    (fun (what, spec) ->
      let named s = what ^ ": " ^ s ^ " -- " ^ Spec.to_string spec in
      let set_up = ref false in
      (match Spec.run ~setup:(fun _ -> set_up := true) spec with
      | _ -> Alcotest.fail (named "ran")
      | exception Spec.Invalid msg ->
          Alcotest.(check (result unit string)) (named "check names the same rule")
            (Error msg) (Spec.check spec));
      Alcotest.(check bool) (named "setup never called") false !set_up)
    [
      ( "rococo at degree 2",
        { base with system = Rococo; config = { base.config with replication_degree = 2 } } );
      ("ro_ops = 0", { base with profile = { base.profile with ro_ops = 0 } });
      ( "crash of node 9 of 4",
        { base with
          plan = Some (Sss_chaos.Chaos.crash_restart ~seed:1 ~node:9 ~at:0.001 ~restart_at:0.002)
        } );
      ("duration = 0", { base with load = { base.load with duration = 0.0 } });
    ]

(* Spec.to_string names every field: a copy of [base] that differs in one
   field prints a different line.  [Config.trace_capacity] is the one field
   left out (no run reads it).  Each record's copies are counted against its
   runtime size, so a field added without a copy here fails the test. *)
let test_spec_line_names_every_field () =
  let module Chaos = Sss_chaos.Chaos in
  let s = Sss_experiments.Experiments.base_spec Smoke in
  let o = { Sss_workload.Driver.arrival = Poisson 1e3; queue_capacity = 8; workers_per_node = 2 } in
  let plan = Chaos.crash_restart ~seed:1 ~node:2 ~at:0.01 ~restart_at:0.02 in
  let base = { s with load = { s.load with open_loop = Some o }; plan = Some plan } in
  let c = base.config and n = base.config.network and p = base.profile and l = base.load in
  let cf f = { base with config = f c } and pf f = { base with profile = f p } in
  let nf f = cf (fun c -> { c with network = f n }) and lf f = { base with load = f l } in
  let of_ f = lf (fun l -> { l with open_loop = Some (f o) }) in
  let plf f = { base with plan = Some (f plan) } in
  let groups =
    [ ("spec", Obj.repr base,
       [ ("system", { base with system = Walter }); ("config", cf (fun c -> { c with seed = 9 }));
         ("profile", pf (fun p -> { p with ro_ops = 3 })); ("plan", { base with plan = None });
         ("load", lf (fun l -> { l with open_loop = None })) ]);
      ("config", Obj.repr c,
       [ ("nodes", cf (fun c -> { c with nodes = 6 }));
         ("seed", cf (fun c -> { c with seed = 43 }));
         ("replication_degree", cf (fun c -> { c with replication_degree = 3 }));
         ("total_keys", cf (fun c -> { c with total_keys = 7 }));
         ("network", nf (fun n -> { n with latency_base = 1e-4 }));
         ("record_history", cf (fun c -> { c with record_history = not c.record_history }));
         ("strict_order", cf (fun c -> { c with strict_order = not c.strict_order }));
         ("gc", cf (fun c -> { c with gc = not c.gc }));
         ("priority_network", cf (fun c -> { c with priority_network = not c.priority_network }));
         ("compress_metadata", cf (fun c -> { c with compress_metadata = false }));
         ("fault_tolerance", cf (fun c -> { c with fault_tolerance = not c.fault_tolerance }));
         ("observe", cf (fun c -> { c with observe = not c.observe }));
         ("durability", cf (fun c -> { c with durability = not c.durability }));
         ("checkpoint_interval", cf (fun c -> { c with checkpoint_interval = 0.051 }));
         ("trace_capacity", cf (fun c -> { c with trace_capacity = 99 })) ]);
      ("network", Obj.repr n,
       [ ("latency_base", nf (fun n -> { n with latency_base = 2.5e-5 }));
         ("latency_jitter", nf (fun n -> { n with latency_jitter = 0.0 }));
         ("self_latency", nf (fun n -> { n with self_latency = 1.5e-6 }));
         ("cpu_per_message", nf (fun n -> { n with cpu_per_message = 2.000001e-6 })) ]);
      ("profile", Obj.repr p,
       [ ("read_only_ratio", pf (fun p -> { p with read_only_ratio = 0.51 }));
         ("ro_ops", pf (fun p -> { p with ro_ops = 4 }));
         ("locality", pf (fun p -> { p with locality = 0.5 })) ]);
      ("load", Obj.repr l,
       [ ("clients_per_node", lf (fun l -> { l with clients_per_node = 5 }));
         ("warmup", lf (fun l -> { l with warmup = 0.0041 }));
         ("duration", lf (fun l -> { l with duration = 0.011 }));
         ("seed", lf (fun l -> { l with seed = 41 }));
         ("dist", lf (fun l -> { l with dist = Zipfian 0.9 }));
         ("retry_aborts", lf (fun l -> { l with retry_aborts = not l.retry_aborts }));
         ("open_loop", of_ (fun o -> { o with arrival = Ramp { from_rate = 1.; to_rate = 2. } }))
       ]);
      ("open_loop", Obj.repr o,
       [ ("arrival", of_ (fun o -> { o with arrival = Poisson 1001.0 }));
         ("queue_capacity", of_ (fun o -> { o with queue_capacity = 9 }));
         ("workers_per_node", of_ (fun o -> { o with workers_per_node = 3 })) ]);
      ("plan", Obj.repr plan,
       [ ("seed", plf (fun p -> { p with seed = 2 }));
         ("events", plf (fun p -> { p with events = [] }));
         ("rules", plf (fun p -> { p with rules = (Result.get_ok (Chaos.parse "dup(p=1)")).rules }))
       ])
    ]
  in
  let line = Spec.to_string base in
  List.iter
    (fun (record, repr, copies) ->
      Alcotest.(check int) (record ^ ": a copy per field") (Obj.size repr) (List.length copies);
      List.iter
        (fun (field, copy) ->
          let same = String.equal (Spec.to_string copy) line in
          if same <> String.equal field "trace_capacity" then
            Alcotest.failf "%s.%s is %s the line %s" record field
              (if same then "missing from" else "printed in") line)
        copies)
    groups

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
        [
          Alcotest.test_case "harness smoke, all systems" `Quick test_experiments_smoke;
          Alcotest.test_case "spec line names every field" `Quick test_spec_line_names_every_field;
          Alcotest.test_case "spec runs setup before the first event" `Quick
            test_spec_setup_before_first_event;
          Alcotest.test_case "spec run refuses an invalid spec" `Quick
            test_spec_run_refuses_invalid;
        ] );
      ( "gc",
        [ Alcotest.test_case "bounded state, same guarantees" `Quick test_gc_bounds_state ] );
      ( "protocol",
        [
          Alcotest.test_case "degree-3 consistency" `Quick test_degree3_consistency;
          Alcotest.test_case "snapshot stable under churn" `Quick
            test_snapshot_stability_under_churn;
          Alcotest.test_case "remove priority" `Quick test_remove_priority_matters;
          Alcotest.test_case "wire size pins" `Quick test_wire_size_pins;
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
