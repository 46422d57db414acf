(* sss_par: the deterministic domain-pool runner.  Unit tests for the pool
   itself (ordering, edge counts, failure propagation) and the contract
   the whole experiment engine rests on: running a sweep at -j1 and at -j4
   produces byte-identical output. *)

module Pool = Sss_par.Pool
module E = Sss_experiments.Experiments

(* ---------- pool units ---------- *)

let test_empty () =
  let pool = Pool.create ~jobs:4 in
  Alcotest.(check (array int)) "0 tasks" [||] (Pool.map pool (fun x -> x) [||]);
  Alcotest.(check (list int)) "0 tasks (list)" [] (Pool.map_list pool (fun x -> x) [])

let test_single () =
  let pool = Pool.create ~jobs:4 in
  Alcotest.(check (array int)) "1 task" [| 49 |] (Pool.map pool (fun x -> x * x) [| 7 |])

let test_many_tasks_few_domains () =
  (* tasks >> domains: every slot filled, in submission order *)
  let pool = Pool.create ~jobs:4 in
  let n = 1000 in
  let tasks = Array.init n (fun i -> i) in
  let got = Pool.map pool (fun i -> (i * i) + 1) tasks in
  Alcotest.(check (array int)) "ordered results" (Array.init n (fun i -> (i * i) + 1)) got

let test_jobs_one_never_spawns () =
  (* jobs=1 runs on the caller's domain: side effects happen in task order *)
  let pool = Pool.create ~jobs:1 in
  let order = ref [] in
  let _ = Pool.map pool (fun i -> order := i :: !order) [| 0; 1; 2; 3 |] in
  Alcotest.(check (list int)) "sequential order" [ 3; 2; 1; 0 ] !order

exception Boom of int

let test_exception_propagates () =
  let pool = Pool.create ~jobs:4 in
  (* every task fails; the pool must re-raise the lowest-index failure
     (task 0 is always claimed and run, so the winner is deterministic) *)
  (match Pool.map pool (fun i -> raise (Boom i)) (Array.init 64 (fun i -> i)) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "lowest-index failure" 0 i);
  (* a failed map cancels cleanly: the same pool still works *)
  Alcotest.(check (array int))
    "pool reusable after failure" [| 0; 2; 4 |]
    (Pool.map pool (fun i -> 2 * i) [| 0; 1; 2 |]);
  (* sequential path raises too *)
  let seq = Pool.create ~jobs:1 in
  match Pool.map seq (fun i -> if i = 2 then raise (Boom i) else i) [| 0; 1; 2; 3 |] with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "sequential failure index" 2 i

let test_invalid_jobs () =
  Alcotest.check_raises "jobs=0 rejected" (Invalid_argument "Pool.create: jobs must be >= 1")
    (fun () -> ignore (Pool.create ~jobs:0))

(* ---------- determinism: -j1 and -j4 are byte-identical ---------- *)

(* Every field of every run a figure returned, in order ([compare], not
   [=], so an empty window's nan mean equals itself). *)
let runs =
  Alcotest.testable
    (fun ppf l -> Format.fprintf ppf "<%d runs>" (List.length l))
    (fun a b -> compare a b = 0)

let capture fig jobs =
  let buf = Buffer.create 4096 in
  let runs = fig (E.ctx ~jobs ~out:(Buffer.add_string buf) ()) E.Smoke in
  (Buffer.contents buf, runs)

let test_figure_determinism () =
  let text1, runs1 = capture E.fig3 1 in
  let text4, runs4 = capture E.fig3 4 in
  Alcotest.(check string) "fig3 text identical at -j1 and -j4" text1 text4;
  Alcotest.(check bool) "fig3 prints something" true (String.length text1 > 0);
  Alcotest.check runs "fig3 runs identical" runs1 runs4

(* [spec] with its cluster and workload both at [seed] *)
let seeded (spec : Sss_experiments.Spec.t) seed =
  { spec with config = { spec.config with seed }; load = { spec.load with seed } }

(* A 3-node, 24-key point with [clients] per node, or [open_loop]. *)
let small ?(clients = 10) ?(duration = 0.01) ?open_loop () =
  let s = E.base_spec E.Full in
  {
    s with
    config = { s.config with nodes = 3; total_keys = 24 };
    load = { s.load with clients_per_node = clients; duration; open_loop };
  }

let test_seed_sweep_determinism () =
  let p = small ~clients:2 () in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let digest outs =
    List.map (fun (o : E.outcome) -> (o.E.committed, o.E.des_events)) outs
  in
  let at jobs =
    digest (Pool.map_list (Pool.create ~jobs) (fun seed -> E.run (seeded p seed)) seeds)
  in
  Alcotest.(check (list (pair int int))) "seed sweep identical at -j1 and -j4" (at 1) (at 4)

(* a chaos sweep through the pool: same fault plan + same seeds => same
   trajectories at any jobs count *)
let test_chaos_sweep_determinism () =
  let module Chaos = Sss_chaos.Chaos in
  let any = { Chaos.src = None; dst = None; kinds = [] } in
  let rule drop dup =
    { Chaos.target = any; drop; dup; delay = 0.0; from_ = 0.0; until = Float.infinity }
  in
  let chaos_one seed =
    let plan = { Chaos.seed; rules = [ rule 0.03 0.0; rule 0.0 0.02 ]; events = [] } in
    let r =
      Sss_experiments.Spec.run
        (Sss_experiments.Spec.make ~plan ~clients:2 ~duration:0.02 Sss
           { Sss_kv.Config.default with nodes = 4; replication_degree = 2; total_keys = 24;
             seed; fault_tolerance = true })
    in
    (r.result.committed, r.des_events)
  in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let at jobs = Pool.map_list (Pool.create ~jobs) chaos_one seeds in
  Alcotest.(check (list (pair int int)))
    "chaos sweep identical at -j1 and -j4" (at 1) (at 4)

(* the open-loop arrival engine and the online GC through the pool: the
   saturation figure (Poisson + Ramp arrivals, admission rejection,
   watermark GC, for two protocols) must be byte-identical at -j1 and -j4 *)
let test_saturation_determinism () =
  let text1, runs1 = capture E.saturation 1 in
  let text4, runs4 = capture E.saturation 4 in
  Alcotest.(check string) "saturation text identical at -j1 and -j4" text1 text4;
  Alcotest.(check bool) "saturation prints something" true (String.length text1 > 0);
  Alcotest.check runs "saturation runs identical" runs1 runs4;
  let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 runs1 in
  Alcotest.(check bool) "saturation sweeps admitted traffic" true
    (sum (fun o -> o.E.accepted) > 0);
  Alcotest.(check bool) "saturation GC collected versions" true
    (sum (fun o -> o.E.gc_dropped_versions) > 0)

(* a single open-loop + GC point, digested down to its admission counters
   and the DES event total: identical through the pool at any jobs count *)
let test_open_loop_run_determinism () =
  let p =
    small ~duration:0.02
      ~open_loop:{ arrival = Poisson 4_000.0; queue_capacity = 8; workers_per_node = 4 } ()
  in
  let digest outs =
    List.map
      (fun (o : E.outcome) ->
        ((o.E.offered, o.E.accepted, o.E.rejected), (o.E.committed, o.E.des_events)))
      outs
  in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let at jobs =
    digest (Pool.map_list (Pool.create ~jobs) (fun seed -> E.run (seeded p seed)) seeds)
  in
  Alcotest.(check
      (list (pair (triple int int int) (pair int int))))
    "open-loop runs identical at -j1 and -j4" (at 1) (at 4)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "0 tasks" `Quick test_empty;
          Alcotest.test_case "1 task" `Quick test_single;
          Alcotest.test_case "tasks >> domains" `Quick test_many_tasks_few_domains;
          Alcotest.test_case "jobs=1 is sequential" `Quick test_jobs_one_never_spawns;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "invalid jobs" `Quick test_invalid_jobs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "figure -j1 = -j4" `Slow test_figure_determinism;
          Alcotest.test_case "run_seeds -j1 = -j4" `Quick test_seed_sweep_determinism;
          Alcotest.test_case "chaos sweep -j1 = -j4" `Quick test_chaos_sweep_determinism;
          Alcotest.test_case "saturation -j1 = -j4" `Slow test_saturation_determinism;
          Alcotest.test_case "open-loop run -j1 = -j4" `Quick test_open_loop_run_determinism;
        ] );
    ]
