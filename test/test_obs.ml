(* Tests for the observability layer (lib/obs): histogram and registry
   unit/property tests, registry assertions over a real SSS run, and
   the observer-effect contract — observe=true must not change a
   trajectory, observe=false must not even allocate a sink. *)

open Sss_kv
open Sss_consistency
module Chaos = Sss_chaos.Chaos
module Obs = Sss_obs.Obs
module Hist = Sss_obs.Hist
module Store = Sss_experiments.Store
module Spec = Sss_experiments.Spec

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---------- histograms: bucket boundaries ---------- *)

(* The fixed shape: bucket 0 is [0, 1e-7), bucket i >= 1 starts at
   [edge (i - 1)], and bucket 47 absorbs everything from [edge 46] up. *)
let edge k = ldexp 1e-7 k

let test_hist_buckets () =
  Alcotest.(check int) "below lo" 0 (Hist.bucket_of 0.5e-7);
  Alcotest.(check int) "at lo" 1 (Hist.bucket_of 1e-7);
  Alcotest.(check int) "inside bucket 1" 1 (Hist.bucket_of (Float.pred (edge 1)));
  Alcotest.(check int) "at edge 2" 2 (Hist.bucket_of (edge 1));
  Alcotest.(check int) "below last bucket" 46 (Hist.bucket_of (Float.pred (edge 46)));
  Alcotest.(check int) "last bucket lower edge" 47 (Hist.bucket_of (edge 46));
  Alcotest.(check int) "last bucket absorbs" 47 (Hist.bucket_of 1e12);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "bucket 0 bounds" (0.0, 1e-7)
    (Hist.bucket_bounds 0);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "bucket 3 bounds" (edge 2, edge 3)
    (Hist.bucket_bounds 3);
  let lo47, hi47 = Hist.bucket_bounds 47 in
  Alcotest.(check (float 0.0)) "last lower" (edge 46) lo47;
  Alcotest.(check bool) "last upper is inf" true (hi47 = infinity);
  Alcotest.(check int) "48 buckets" 48 (Array.length (Hist.counts (Hist.create ())));
  Alcotest.check_raises "index past the last bucket"
    (Invalid_argument "Hist.bucket_bounds: index out of range") (fun () ->
      ignore (Hist.bucket_bounds 48))

(* The first [n] bucket counts, after checking the rest are empty. *)
let first_counts h n =
  let c = Hist.counts h in
  Alcotest.(check int) "no count past the prefix" 0
    (Array.fold_left ( + ) 0 (Array.sub c n (Array.length c - n)));
  Array.to_list (Array.sub c 0 n)

let test_hist_stats () =
  let h = Hist.create () in
  List.iter (Hist.observe h) [ 0.5e-7; 1.5e-7; 3e-7; 6e-7 ];
  Alcotest.(check int) "count" 4 (Hist.count h);
  Alcotest.(check (float 1e-15)) "sum" 11e-7 (Hist.sum h);
  Alcotest.(check (float 1e-15)) "mean" 2.75e-7 (Hist.mean h);
  Alcotest.(check (float 0.0)) "min" 0.5e-7 (Hist.min_value h);
  Alcotest.(check (float 0.0)) "max" 6e-7 (Hist.max_value h);
  Alcotest.(check (list int)) "per-bucket counts" [ 1; 1; 1; 1 ] (first_counts h 4);
  (* negative values clamp to 0 instead of being lost *)
  Hist.observe h (-3.0);
  Alcotest.(check int) "negative clamped into bucket 0" 2 (Hist.counts h).(0);
  Alcotest.(check (float 0.0)) "clamped min" 0.0 (Hist.min_value h)

let test_hist_percentile () =
  let h = Hist.create () in
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (Hist.percentile h 0.5);
  for _ = 1 to 99 do Hist.observe h 1.5e-7 done;
  Hist.observe h 6e-7;
  (* p50 rank lands in bucket [1e-7, 2e-7): reported as its upper edge *)
  Alcotest.(check (float 0.0)) "p50 bucket upper edge" (edge 1) (Hist.percentile h 0.5);
  (* p100 lands in bucket [4e-7, 8e-7), whose upper edge clamps to the
     observed max *)
  Alcotest.(check (float 0.0)) "p100 clamps to vmax" 6e-7 (Hist.percentile h 1.0);
  (* the last bucket's infinite upper edge clamps the same way *)
  Hist.observe h 1e12;
  Alcotest.(check (float 0.0)) "overflow p100 clamps to vmax" 1e12 (Hist.percentile h 1.0);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Hist.percentile: p outside (0, 1]") (fun () ->
      ignore (Hist.percentile h 1.5))

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.observe a) [ 0.5e-7; 3e-7 ];
  List.iter (Hist.observe b) [ 1.5e-7; 9e-7 ];
  let m = Hist.merge a b in
  Alcotest.(check int) "merged count" 4 (Hist.count m);
  Alcotest.(check (float 1e-15)) "merged sum" 14e-7 (Hist.sum m);
  Alcotest.(check (float 0.0)) "merged min" 0.5e-7 (Hist.min_value m);
  Alcotest.(check (float 0.0)) "merged max" 9e-7 (Hist.max_value m);
  Alcotest.(check (list int)) "merged buckets" [ 1; 1; 1; 0; 1 ] (first_counts m 5);
  Alcotest.(check int) "inputs untouched" 2 (Hist.count a)

(* ---------- histogram properties ---------- *)

let pos_floats = QCheck.(list_of_size Gen.(int_range 0 200) (float_bound_exclusive 1e6))

let prop_count_preserved =
  QCheck.Test.make ~name:"hist: total bucket count = observations" ~count:200
    pos_floats (fun xs ->
      let h = Hist.create () in
      List.iter (Hist.observe h) xs;
      Array.fold_left ( + ) 0 (Hist.counts h) = List.length xs
      && Hist.count h = List.length xs)

let prop_bucket_monotone =
  QCheck.Test.make ~name:"hist: bucket_of monotone in the value" ~count:500
    QCheck.(pair (float_bound_exclusive 1e9) (float_bound_exclusive 1e9))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Hist.bucket_of lo <= Hist.bucket_of hi)

let prop_merge_is_concat =
  QCheck.Test.make ~name:"hist: merge = observing the concatenation" ~count:100
    QCheck.(pair pos_floats pos_floats) (fun (xs, ys) ->
      let mk l =
        let h = Hist.create () in
        List.iter (Hist.observe h) l;
        h
      in
      let merged = Hist.merge (mk xs) (mk ys) in
      let both = mk (xs @ ys) in
      Hist.counts merged = Hist.counts both [@poly_ok]
      && Hist.count merged = Hist.count both)

(* ---------- the registry ---------- *)

let test_counters_and_gauges () =
  let o = Obs.create () in
  Obs.incr o "b";
  Obs.incr o "a";
  Obs.incr o "b";
  Obs.add o "a" 10;
  Alcotest.(check int) "counter a" 11 (Obs.counter o "a");
  Alcotest.(check int) "unknown counter" 0 (Obs.counter o "zzz");
  Alcotest.(check (list (pair string int))) "sorted read-back"
    [ ("a", 11); ("b", 2) ] (Obs.counters o);
  Obs.gauge_set o "depth" 3;
  Obs.gauge_set o "depth" 7;
  Obs.gauge_set o "depth" 2;
  Alcotest.(check (list (pair string (pair int int)))) "gauge current+peak"
    [ ("depth", (2, 7)) ] (Obs.gauges o)

let test_json_shapes () =
  let fill o =
    Obs.incr o "txn.commit.ro";
    Obs.observe o "lat.txn.ro" 0.001;
    Obs.gauge_set o "net.queue.node0" 2
  in
  let o = Obs.create () in
  fill o;
  let m = Obs.metrics_json o in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "metrics has %s" needle)
        true
        (contains ~needle m))
    [ "\"counters\""; "\"histograms\""; "\"gauges\""; "txn.commit.ro" ];
  Alcotest.(check bool) "one JSON object" true
    (String.length m > 2 && m.[0] = '{' && m.[String.length m - 1] = '}');
  (* identical registries render identically *)
  let o2 = Obs.create () in
  fill o2;
  Alcotest.(check string) "deterministic rendering" m (Obs.metrics_json o2)

(* ---------- registry assertions over a real SSS run ---------- *)

(* An SSS run and a labeller that names its spec.  With a fault plan the
   run uses the fault-tolerant transport, so the protocol survives the
   plan's losses. *)
let run_sss ?plan ~observe ~seed () =
  let config =
    {
      Config.default with
      nodes = 3;
      replication_degree = 1;
      total_keys = 24;
      seed;
      observe;
      fault_tolerance = Option.is_some plan;
    }
  in
  let spec = Spec.make ?plan ~clients:4 ~duration:0.04 Sss config in
  ((fun what -> what ^ " -- " ^ Spec.to_string spec), Spec.run spec)

let obs_exn named (r : Store.run) =
  match r.store.obs with
  | Some o -> o
  | None -> Alcotest.fail (named "observe=true but no sink attached")

(* The sum of every counter whose name starts with [prefix]. *)
let counter_sum o prefix =
  List.fold_left
    (fun acc (name, n) -> if String.starts_with ~prefix name then acc + n else acc)
    0 (Obs.counters o)

let test_traced_run_events () =
  let named, r = run_sss ~observe:true ~seed:7 () in
  let o = obs_exn named r in
  let check_int what = Alcotest.(check int) (named what) in
  let check_true what = Alcotest.(check bool) (named what) true in
  check_true "made progress" (r.result.committed > 50);
  check_true "ran read-only transactions" (Obs.counter o "txn.begin.ro" > 0);
  (* the paper's headline property, visible in the registry: every
     read-only transaction begun commits, and the aborts the counters
     record are the driver's update aborts *)
  check_int "every read-only transaction commits" (Obs.counter o "txn.begin.ro")
    (Obs.counter o "txn.commit.ro");
  check_int "no read-only round abort" 0 (Obs.counter o "txn.abort.ro-rounds");
  check_int "aborts counted by reason"
    (Obs.counter o "txn.begin.update" - Obs.counter o "txn.commit.update")
    (counter_sum o "txn.abort.");
  check_true "saw vclock advances" (Obs.counter o "vclock.advance" > 0);
  (* every park is matched by an unpark before quiescence *)
  check_int "park = unpark at quiescence" (Obs.counter o "sq.park") (Obs.counter o "sq.unpark");
  check_true "parking actually happened" (Obs.counter o "sq.park" > 0);
  (* the observed run is still checker-clean *)
  List.iter
    (fun (what, verdict) ->
      Result.iter_error (fun e -> Alcotest.fail (named (what ^ ": " ^ e))) verdict)
    [
      ("external consistency", Checker.external_consistency r.store.history);
      ("ro abort-free", Checker.read_only_abort_free r.store.history);
      ("quiescent", r.store.quiescent ());
    ]

let test_traced_run_metrics () =
  let named, r = run_sss ~observe:true ~seed:7 () in
  let o = obs_exn named r in
  (* non-zero latency histograms for the protocol's message kinds *)
  List.iter
    (fun kind ->
      let name = "lat.msg." ^ kind in
      match Obs.hist o name with
      | Some h ->
          Alcotest.(check bool) (named (name ^ " non-empty")) true (Hist.count h > 0);
          Alcotest.(check bool) (named (name ^ " positive mean")) true (Hist.mean h > 0.0)
      | None -> Alcotest.fail (named (name ^ " missing")))
    [ "read_request"; "read_return"; "prepare"; "vote"; "decide"; "ack" ];
  (* per-class transaction latency *)
  List.iter
    (fun name ->
      match Obs.hist o name with
      | Some h -> Alcotest.(check bool) (named (name ^ " non-empty")) true (Hist.count h > 0)
      | None -> Alcotest.fail (named (name ^ " missing")))
    [ "lat.txn.ro"; "lat.txn.update" ];
  (* sent/recv counters pair up per kind on a lossless network *)
  List.iter
    (fun kind ->
      Alcotest.(check int)
        (named ("sent=recv for " ^ kind))
        (Obs.counter o ("msg.sent." ^ kind))
        (Obs.counter o ("msg.recv." ^ kind)))
    [ "prepare"; "vote"; "decide"; "read_request"; "read_return" ];
  (* queue-depth gauges track every node's live depth: each queue is empty
     once the run drained, and the peaks are this run's deepest queues *)
  let gauges = Obs.gauges o in
  List.iter
    (fun (n, peak) ->
      let name = Printf.sprintf "net.queue.node%d" n in
      match List.assoc_opt name gauges with
      | Some (current, p) ->
          Alcotest.(check int) (named (name ^ " drained")) 0 current;
          Alcotest.(check int) (named (name ^ " peak")) peak p
      | None -> Alcotest.fail (named (name ^ " missing")))
    [ (0, 8); (1, 6); (2, 5) ];
  (* the metrics JSON carries it all *)
  let json = Obs.metrics_json o in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (named ("metrics has " ^ needle)) true (contains ~needle json))
    [ "lat.msg.prepare"; "lat.txn.ro"; "txn.commit.ro"; "vclock.advance" ]

(* Every message the network loses shows up under [msg.lost.<kind>],
   including those that reach a crashed destination. *)
let test_losses_counted () =
  let plan = Chaos.crash_restart ~seed:3 ~node:1 ~at:0.015 ~restart_at:0.025 in
  let named, r = run_sss ~plan ~observe:true ~seed:7 () in
  let o = obs_exn named r in
  let dropped = r.network.dropped in
  Alcotest.(check bool) (named "the crash lost messages") true (dropped > 0);
  Alcotest.(check int) (named "msg.lost.* sums to the network's dropped") dropped
    (counter_sum o "msg.lost.")

(* ---------- the observer-effect contract ---------- *)

let test_observer_effect_zero () =
  let named, off = run_sss ~observe:false ~seed:13 () in
  let _, on = run_sss ~observe:true ~seed:13 () in
  Alcotest.(check (option unit)) (named "observe=false allocates no sink") None
    (Option.map ignore off.store.obs);
  Alcotest.(check int) (named "same DES event count") off.des_events on.des_events;
  Alcotest.(check (float 0.0)) (named "same virtual end time") off.virtual_seconds
    on.virtual_seconds;
  Alcotest.(check int) (named "same committed") off.result.committed on.result.committed;
  Alcotest.(check int) (named "same aborted") off.result.aborted on.result.aborted;
  let verdict (r : Store.run) =
    let h = r.store.history in
    ( Result.is_ok (Checker.external_consistency h),
      Result.is_ok (Checker.serializability h),
      Result.is_ok (Checker.no_lost_updates h),
      Result.is_ok (Checker.read_only_abort_free h) )
  in
  Alcotest.(check (pair (pair bool bool) (pair bool bool)))
    (named "same checker verdicts")
    (let a, b, c, d = verdict off in
     ((a, b), (c, d)))
    (let a, b, c, d = verdict on in
     ((a, b), (c, d)))

let test_observed_runs_deterministic () =
  let metrics seed =
    let named, r = run_sss ~observe:true ~seed () in
    Obs.metrics_json (obs_exn named r)
  in
  Alcotest.(check string) "same seed => identical metrics JSON" (metrics 21) (metrics 21);
  Alcotest.(check bool) "different seed => different metrics" true
    (metrics 21 <> metrics 22)

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_hist_buckets;
          Alcotest.test_case "count/sum/mean/min/max" `Quick test_hist_stats;
          Alcotest.test_case "percentiles" `Quick test_hist_percentile;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          QCheck_alcotest.to_alcotest prop_count_preserved;
          QCheck_alcotest.to_alcotest prop_bucket_monotone;
          QCheck_alcotest.to_alcotest prop_merge_is_concat;
        ] );
      ( "ring",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
          Alcotest.test_case "json shapes" `Quick test_json_shapes;
        ] );
      ( "traced-run",
        [
          Alcotest.test_case "event stream invariants" `Quick test_traced_run_events;
          Alcotest.test_case "metrics registry" `Quick test_traced_run_metrics;
          Alcotest.test_case "every loss counted" `Quick test_losses_counted;
        ] );
      ( "observer-effect",
        [
          Alcotest.test_case "observe on/off: identical trajectory" `Quick
            test_observer_effect_zero;
          Alcotest.test_case "observed runs are deterministic" `Quick
            test_observed_runs_deterministic;
        ] );
    ]
