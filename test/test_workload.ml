(* Workload-generator tests: Zipfian key popularity, the open-loop arrival
   process (Poisson / Ramp), bounded admission-queue edge cases, and the
   Nlog.prune_covered watermark contract.  The statistical checks use fixed seeds
   and generous tolerances so they are deterministic, not flaky. *)

open Sss_sim
open Sss_data
open Sss_kv
open Sss_workload
module Store = Sss_experiments.Store
module Spec = Sss_experiments.Spec

(* ---------- Zipfian sampling ---------- *)

(* Rank frequencies are monotone: item [i] is at least as probable as
   item [i+1], and the distribution sums to one. *)
let test_zipf_monotone () =
  let z = Zipf.create ~n:50 ~theta:0.99 in
  let sum = ref 0.0 in
  for i = 0 to 49 do
    sum := !sum +. Zipf.probability z i;
    if i < 49 then
      Alcotest.(check bool)
        (Printf.sprintf "p(%d) >= p(%d)" i (i + 1))
        true
        (Zipf.probability z i >= Zipf.probability z (i + 1))
  done;
  Alcotest.(check bool) "probabilities sum to 1" true (Float.abs (!sum -. 1.0) < 1e-9)

(* theta = 0 is the uniform boundary: every item equally likely. *)
let test_zipf_theta_zero_uniform () =
  let n = 40 in
  let z = Zipf.create ~n ~theta:0.0 in
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "p(%d) = 1/n" i)
      true
      (Float.abs (Zipf.probability z i -. (1.0 /. float_of_int n)) < 1e-9)
  done

(* Sampled frequencies respect the skew: under theta = 0.99 the top rank is
   drawn far more often than a tail rank, and clearly more often than it
   would be under the uniform boundary. *)
let test_zipf_sample_skew () =
  let n = 50 and draws = 20_000 in
  let freq theta =
    let z = Zipf.create ~n ~theta in
    let rng = Prng.create ~seed:42 in
    let counts = Array.make n 0 in
    for _ = 1 to draws do
      let i = Zipf.sample z rng in
      counts.(i) <- counts.(i) + 1
    done;
    counts
  in
  let skewed = freq 0.99 and uniform = freq 0.0 in
  Alcotest.(check bool)
    (Printf.sprintf "rank 0 (%d) dominates rank 25 (%d)" skewed.(0) skewed.(25))
    true
    (skewed.(0) > 4 * skewed.(25));
  Alcotest.(check bool)
    (Printf.sprintf "skewed head (%d) > 2x uniform head (%d)" skewed.(0) uniform.(0))
    true
    (skewed.(0) > 2 * uniform.(0))

(* Same seed, same sample sequence. *)
let test_zipf_determinism () =
  let draw () =
    let z = Zipf.create ~n:100 ~theta:0.8 in
    let rng = Prng.create ~seed:7 in
    List.init 200 (fun _ -> Zipf.sample z rng)
  in
  Alcotest.(check (list int)) "replay is identical" (draw ()) (draw ())

let test_zipf_invalid_args () =
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (Zipf.create ~n:0 ~theta:0.5));
  Alcotest.check_raises "negative theta rejected"
    (Invalid_argument "Zipf.create: theta must be non-negative") (fun () ->
      ignore (Zipf.create ~n:10 ~theta:(-0.1)))

(* ---------- Arrival process ---------- *)

(* Poisson: constant instantaneous rate; mean inter-arrival gap 1/rate. *)
let test_poisson_gap_mean () =
  let rate = 500.0 in
  Alcotest.(check (float 1e-9)) "rate is constant" rate
    (Driver.arrival_rate (Driver.Poisson rate) ~at:0.37 ~horizon:1.0);
  let rng = Prng.create ~seed:99 in
  let draws = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to draws do
    let gap = Driver.arrival_gap (Driver.Poisson rate) rng ~at:0.0 ~horizon:1.0 in
    Alcotest.(check bool) "gaps are positive" true (gap > 0.0);
    sum := !sum +. gap
  done;
  let mean = !sum /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap %.6f within 5%% of %.6f" mean (1.0 /. rate))
    true
    (Float.abs (mean -. (1.0 /. rate)) < 0.05 /. rate)

(* Ramp: the instantaneous rate interpolates linearly over the horizon and
   clamps outside it. *)
let test_ramp_interpolation () =
  let a = Driver.Ramp { from_rate = 100.0; to_rate = 300.0 } in
  let rate at = Driver.arrival_rate a ~at ~horizon:1.0 in
  Alcotest.(check (float 1e-9)) "start" 100.0 (rate 0.0);
  Alcotest.(check (float 1e-9)) "midpoint" 200.0 (rate 0.5);
  Alcotest.(check (float 1e-9)) "end" 300.0 (rate 1.0);
  Alcotest.(check (float 1e-9)) "clamped past the end" 300.0 (rate 2.0);
  (* a ramp's gaps drawn near the end are shorter on average than near the
     start (sanity: the gap draw uses the instantaneous rate) *)
  let mean_gap at =
    let rng = Prng.create ~seed:5 in
    let sum = ref 0.0 in
    for _ = 1 to 5_000 do
      sum := !sum +. Driver.arrival_gap a rng ~at ~horizon:1.0
    done;
    !sum /. 5_000.0
  in
  Alcotest.(check bool) "gaps shrink along the ramp" true (mean_gap 0.9 < mean_gap 0.1)

(* The arrival stream is a seeded private stream: same seed, same gaps. *)
let test_arrival_determinism () =
  let draw () =
    let rng = Prng.create ~seed:1234 in
    List.init 100 (fun i ->
        Driver.arrival_gap
          (Driver.Ramp { from_rate = 50.0; to_rate = 200.0 })
          rng
          ~at:(float_of_int i *. 0.01)
          ~horizon:1.0)
  in
  Alcotest.(check (list (float 0.0))) "replay is identical" (draw ()) (draw ())

let test_arrival_invalid_rate () =
  let rng = Prng.create ~seed:1 in
  Alcotest.check_raises "zero rate rejected"
    (Invalid_argument "Driver.arrival_gap: arrival rate must be positive") (fun () ->
      ignore (Driver.arrival_gap (Driver.Poisson 0.0) rng ~at:0.0 ~horizon:1.0));
  Alcotest.check_raises "ramp through zero rejected"
    (Invalid_argument "Driver.arrival_gap: arrival rate must be positive") (fun () ->
      ignore
        (Driver.arrival_gap
           (Driver.Ramp { from_rate = 0.0; to_rate = 100.0 })
           rng ~at:0.0 ~horizon:1.0))

(* ---------- qcheck properties over the generator space ---------- *)

let zipf_property =
  QCheck.Test.make ~name:"zipf: monotone pmf summing to 1, samples in range" ~count:100
    QCheck.(pair (int_range 1 200) (int_bound 200))
    (fun (n, theta_pct) ->
      let theta = float_of_int theta_pct /. 100.0 in
      let z = Zipf.create ~n ~theta in
      let sum = ref 0.0 in
      let mono = ref true in
      for i = 0 to n - 1 do
        sum := !sum +. Zipf.probability z i;
        if i > 0 && Zipf.probability z (i - 1) < Zipf.probability z i -. 1e-12 then
          mono := false
      done;
      let rng = Prng.create ~seed:(n + (1000 * theta_pct)) in
      let in_range = ref true in
      for _ = 1 to 50 do
        let s = Zipf.sample z rng in
        if s < 0 || s >= n then in_range := false
      done;
      !mono && !in_range && Float.abs (!sum -. 1.0) < 1e-6)

let arrival_property =
  QCheck.Test.make ~name:"arrival gaps: positive and seed-deterministic" ~count:100
    QCheck.(triple (int_range 1 1_000_000) (int_range 1 100_000) (int_range 1 100))
    (fun (seed, rate_i, steps) ->
      let rate = float_of_int rate_i in
      let arrivals =
        [ Driver.Poisson rate; Driver.Ramp { from_rate = rate; to_rate = 2.0 *. rate } ]
      in
      List.for_all
        (fun a ->
          let draw () =
            let rng = Prng.create ~seed in
            List.init steps (fun i ->
                Driver.arrival_gap a rng ~at:(float_of_int i *. 1e-4) ~horizon:1.0)
          in
          let g1 = draw () and g2 = draw () in
          List.for_all (fun g -> g > 0.0) g1 && g1 = g2)
        arrivals)

let ramp_bounded_property =
  QCheck.Test.make ~name:"ramp rate stays within its endpoints" ~count:200
    QCheck.(triple (int_range 1 1000) (int_range 1 1000) (int_bound 400))
    (fun (f, t, at_pct) ->
      let lo = float_of_int (min f t) and hi = float_of_int (max f t) in
      let a = Driver.Ramp { from_rate = float_of_int f; to_rate = float_of_int t } in
      let r = Driver.arrival_rate a ~at:(float_of_int at_pct /. 100.0) ~horizon:1.0 in
      r >= lo -. 1e-9 && r <= hi +. 1e-9)

(* ---------- Open-loop admission queue ---------- *)

(* An open-loop SSS run and a labeller that names its spec. *)
let open_loop_run ~queue_capacity ~workers ~rate ~seed =
  let s =
    Spec.make ~duration:0.05 Sss
      { Config.default with nodes = 2; replication_degree = 1; total_keys = 16; seed }
  in
  let open_loop =
    Some { Driver.arrival = Driver.Poisson rate; queue_capacity; workers_per_node = workers }
  in
  let spec = { s with load = { s.load with open_loop } } in
  ((fun what -> what ^ " -- " ^ Spec.to_string spec), Spec.run spec)

(* Capacity 0 is a pure-loss system: every arrival is rejected, nothing is
   admitted, nothing commits — but the offered load is still counted. *)
let test_queue_capacity_zero () =
  let named, run = open_loop_run ~queue_capacity:0 ~workers:2 ~rate:2_000.0 ~seed:3 in
  let r = run.result in
  Alcotest.(check bool) (named "arrivals were offered") true (r.offered > 50);
  Alcotest.(check int) (named "none accepted") 0 r.accepted;
  Alcotest.(check int) (named "all rejected") r.offered r.rejected;
  Alcotest.(check int) (named "none committed") 0 r.committed;
  Result.iter_error (fun m -> Alcotest.fail (named ("quiescent: " ^ m))) (run.quiescent ())

(* Capacity 1 admits work but sheds most of an overload; the admission
   accounting is exact: offered = accepted + rejected, and only accepted
   work can commit. *)
let test_queue_capacity_one () =
  let named, run = open_loop_run ~queue_capacity:1 ~workers:1 ~rate:5_000.0 ~seed:4 in
  let r = run.result in
  Alcotest.(check bool) (named "arrivals were offered") true (r.offered > 100);
  Alcotest.(check int) (named "offered = accepted + rejected") r.offered (r.accepted + r.rejected);
  Alcotest.(check bool) (named "some work admitted") true (r.accepted > 0);
  Alcotest.(check bool) (named "overload is shed") true (r.rejected > 0);
  Alcotest.(check bool)
    (named (Printf.sprintf "committed %d <= accepted %d" r.committed r.accepted))
    true
    (r.committed <= r.accepted)

(* An uncontended run (ample queue, modest rate) rejects nothing, and the
   sojourn of every committed transaction decomposes into queueing plus
   service. *)
let test_queue_uncontended_accounting () =
  let named, run = open_loop_run ~queue_capacity:64 ~workers:8 ~rate:500.0 ~seed:5 in
  let r = run.result in
  Alcotest.(check int) (named "nothing rejected") 0 r.rejected;
  Alcotest.(check int) (named "everything accepted") r.offered r.accepted;
  Alcotest.(check bool) (named "made progress") true (r.committed > 10);
  let mean s = Stats.mean s in
  Alcotest.(check bool)
    (named
       (Printf.sprintf "mean sojourn %.6f >= mean service %.6f" (mean r.sojourn)
          (mean r.service)))
    true
    (mean r.sojourn >= mean r.service -. 1e-12);
  Alcotest.(check (float 1e-9)) (named "sojourn = queue wait + service")
    (mean r.sojourn)
    (mean r.queue_wait +. mean r.service)

(* Same seed, same open-loop trajectory: the arrival stream is private and
   seeded, so replays are exactly identical. *)
let test_open_loop_determinism () =
  let snap () =
    let named, run = open_loop_run ~queue_capacity:4 ~workers:2 ~rate:3_000.0 ~seed:6 in
    let r = run.result in
    (named, (r.offered, r.accepted, r.rejected, r.committed, Stats.mean r.sojourn))
  in
  let named, (o1, a1, j1, c1, s1) = snap () and _, (o2, a2, j2, c2, s2) = snap () in
  Alcotest.(check int) (named "offered replays") o1 o2;
  Alcotest.(check int) (named "accepted replays") a1 a2;
  Alcotest.(check int) (named "rejected replays") j1 j2;
  Alcotest.(check int) (named "committed replays") c1 c2;
  Alcotest.(check bool) (named "sojourn replays") true (s1 = s2)

(* Closed-loop runs report no open-loop traffic at all: the admission
   counters exist only when the arrival engine is on. *)
let test_closed_loop_counters_zero () =
  let spec =
    Spec.make ~duration:0.02 Sss
      { Config.default with nodes = 2; replication_degree = 1; total_keys = 16; seed = 8 }
  in
  let r = (Spec.run spec).result in
  let named what = what ^ " -- " ^ Spec.to_string spec in
  Alcotest.(check int) (named "offered = 0") 0 r.offered;
  Alcotest.(check int) (named "accepted = 0") 0 r.accepted;
  Alcotest.(check int) (named "rejected = 0") 0 r.rejected;
  Alcotest.(check bool) (named "but the closed loop committed") true (r.committed > 10)

(* A transaction with no operation sends no message, so a closed loop of
   them would never advance virtual time: [Driver.run] refuses the profile
   before spawning a client. *)
let test_zero_op_profile_rejected () =
  let spec =
    {
      Spec.system = Sss;
      config = { Config.default with nodes = 2; replication_degree = 1; total_keys = 16 };
      profile = { (Driver.paper_profile ~read_only_ratio:1.0) with ro_ops = 0 };
      load = Driver.default_load;
      plan = None;
    }
  in
  let named what = what ^ " -- " ^ Spec.to_string spec and sim = ref None in
  Alcotest.check_raises (named "ro_ops = 0 refused")
    (Invalid_argument "Driver.run: update_ops and ro_ops must be at least 1") (fun () ->
      ignore (Spec.run ~setup:(fun (Store.Store s) -> sim := Some s.sim) spec : Store.run));
  let sim = Option.get !sim in
  Sim.run sim;
  Alcotest.(check int) (named "no client was spawned") 0 (Sim.events_processed sim)

(* ---------- Nlog.prune_covered watermark contract ---------- *)

(* [prune_covered] may drop only entries a live transaction can no longer
   need: a prefix of entries entry-wise below the cluster watermark.  An
   entry the watermark does not cover must survive, and so must every
   entry after it. *)
let test_nlog_prune_covered_prefix () =
  let txn local = { Ids.node = 0; local } in
  let log = Nlog.create ~nodes:2 ~node:0 in
  Nlog.add log ~txn:(txn 1) ~vc:(Vclock.of_array [| 1; 0 |]) ~ws:[ 0 ];
  Nlog.add log ~txn:(txn 2) ~vc:(Vclock.of_array [| 2; 0 |]) ~ws:[ 1 ];
  Nlog.add log ~txn:(txn 3) ~vc:(Vclock.of_array [| 3; 0 |]) ~ws:[ 0 ];
  (* a zero watermark covers only the genesis *)
  Alcotest.(check int) "zero watermark drops only the genesis" 1
    (Nlog.prune_covered log ~watermark:(Vclock.zero 2));
  Alcotest.(check int) "uncovered entries kept" 3 (Nlog.size log);
  (* [2;6] is not covered by [3;5], so [3;0] behind it survives too *)
  let log2 = Nlog.create ~nodes:2 ~node:0 in
  Nlog.add log2 ~txn:(txn 4) ~vc:(Vclock.of_array [| 1; 0 |]) ~ws:[ 0 ];
  Nlog.add log2 ~txn:(txn 5) ~vc:(Vclock.of_array [| 2; 6 |]) ~ws:[ 1 ];
  Nlog.add log2 ~txn:(txn 6) ~vc:(Vclock.of_array [| 3; 0 |]) ~ws:[ 0 ];
  Alcotest.(check int) "covered prefix dropped" 2
    (Nlog.prune_covered log2 ~watermark:(Vclock.of_array [| 3; 5 |]));
  Alcotest.(check int) "first uncovered entry and its suffix kept" 2 (Nlog.size log2);
  (* and a watermark that covers everything still keeps one entry *)
  ignore (Nlog.prune_covered log2 ~watermark:(Vclock.of_array [| 5; 9 |]) : int);
  Alcotest.(check int) "covered prune keeps one entry" 1 (Nlog.size log2)

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "rank frequencies monotone" `Quick test_zipf_monotone;
          Alcotest.test_case "theta 0 = uniform" `Quick test_zipf_theta_zero_uniform;
          Alcotest.test_case "sampled skew" `Quick test_zipf_sample_skew;
          Alcotest.test_case "seeded determinism" `Quick test_zipf_determinism;
          Alcotest.test_case "invalid args rejected" `Quick test_zipf_invalid_args;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "poisson gap mean" `Quick test_poisson_gap_mean;
          Alcotest.test_case "ramp interpolation" `Quick test_ramp_interpolation;
          Alcotest.test_case "seeded determinism" `Quick test_arrival_determinism;
          Alcotest.test_case "non-positive rate rejected" `Quick test_arrival_invalid_rate;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest zipf_property;
          QCheck_alcotest.to_alcotest arrival_property;
          QCheck_alcotest.to_alcotest ramp_bounded_property;
        ] );
      ( "admission-queue",
        [
          Alcotest.test_case "capacity 0 is pure loss" `Quick test_queue_capacity_zero;
          Alcotest.test_case "capacity 1 sheds overload" `Quick test_queue_capacity_one;
          Alcotest.test_case "uncontended accounting" `Quick test_queue_uncontended_accounting;
          Alcotest.test_case "open-loop determinism" `Quick test_open_loop_determinism;
          Alcotest.test_case "closed loop has no admission counters" `Quick
            test_closed_loop_counters_zero;
        ] );
      ( "driver",
        [ Alcotest.test_case "zero-op profile rejected" `Quick test_zero_op_profile_rejected ] );
      ( "nlog-prune",
        [
          Alcotest.test_case "covered prefix only" `Quick test_nlog_prune_covered_prefix;
        ] );
    ]
