(* sss_par: the deterministic domain-pool runner.  Unit tests for the pool
   itself (ordering, edge counts, failure propagation), the shared sweep
   helpers, and the contract the whole experiment engine rests on: running
   a sweep at -j1 and at -j4 produces byte-identical output. *)

module Pool = Sss_par.Pool
module Sweep = Sss_par.Sweep
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

(* ---------- sweep helpers ---------- *)

let test_sweep_helpers () =
  Alcotest.(check (list int)) "seeds 1..n" [ 1; 2; 3; 4 ] (Sweep.seeds 4);
  Alcotest.(check (list int)) "seeds with base" [ 11; 12 ] (Sweep.seeds ~base:10 2);
  Alcotest.(check (list int)) "seeds 0" [] (Sweep.seeds 0);
  Alcotest.(check (list (pair string int)))
    "cross is row-major"
    [ ("a", 1); ("a", 2); ("b", 1); ("b", 2) ]
    (Sweep.cross [ "a"; "b" ] [ 1; 2 ])

(* ---------- determinism: -j1 and -j4 are byte-identical ---------- *)

let meters_tuple (m : E.meters) =
  ((m.E.des_events, m.E.virtual_seconds), (m.E.committed_txns, m.E.runs))

let test_figure_determinism () =
  let capture jobs =
    let buf = Buffer.create 4096 in
    let c = E.ctx ~jobs ~out:(Buffer.add_string buf) () in
    let m = E.fig3 c E.Smoke in
    (Buffer.contents buf, m)
  in
  let text1, m1 = capture 1 in
  let text4, m4 = capture 4 in
  Alcotest.(check string) "fig3 text identical at -j1 and -j4" text1 text4;
  Alcotest.(check bool) "fig3 prints something" true (String.length text1 > 0);
  Alcotest.(check (pair (pair int (float 0.)) (pair int int)))
    "fig3 meters identical" (meters_tuple m1) (meters_tuple m4)

let test_run_seeds_determinism () =
  let p = { E.default_params with nodes = 3; keys = 24; clients = 2; duration = 0.01 } in
  let seeds = Sweep.seeds 6 in
  let digest outs =
    List.map (fun (o : E.outcome) -> (o.E.committed, o.E.des_events)) outs
  in
  let at jobs = digest (E.run_seeds (E.ctx ~jobs ()) p ~seeds) in
  Alcotest.(check (list (pair int int)))
    "run_seeds identical at -j1 and -j4" (at 1) (at 4)

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
    let sim = Sss_sim.Sim.create () in
    let config =
      { Sss_kv.Config.default with nodes = 4; replication_degree = 2; total_keys = 24;
        seed; fault_tolerance = true }
    in
    let cl = Sss_kv.Kv.create sim config in
    ignore (Chaos.install sim (Sss_kv.Kv.network cl) ~kind_of:Sss_kv.Message.kind_name plan);
    let result =
      Sss_workload.Driver.run sim ~nodes:4 ~total_keys:24
        ~local_keys:(fun _ -> [||])
        ~profile:(Sss_workload.Driver.paper_profile ~read_only_ratio:0.5)
        ~load:
          {
            Sss_workload.Driver.default_load with
            clients_per_node = 2;
            warmup = 0.005;
            duration = 0.02;
            seed;
          }
        ~ops:
          {
            Sss_workload.Driver.begin_txn =
              (fun ~node ~read_only -> Sss_kv.Kv.begin_txn cl ~node ~read_only);
            read = Sss_kv.Kv.read;
            write = Sss_kv.Kv.write;
            commit = Sss_kv.Kv.commit;
          }
    in
    (result.Sss_workload.Driver.committed, Sss_sim.Sim.events_processed sim)
  in
  let seeds = Sweep.seeds 6 in
  let at jobs = Pool.map_list (Pool.create ~jobs) chaos_one seeds in
  Alcotest.(check (list (pair int int)))
    "chaos sweep identical at -j1 and -j4" (at 1) (at 4)

(* the open-loop arrival engine and the online GC through the pool: the
   saturation figure (Poisson + Ramp arrivals, admission rejection,
   watermark GC, for two protocols) must be byte-identical at -j1 and -j4 *)
let test_saturation_determinism () =
  let capture jobs =
    let buf = Buffer.create 4096 in
    let c = E.ctx ~jobs ~out:(Buffer.add_string buf) () in
    let m = E.saturation c E.Smoke in
    (Buffer.contents buf, m)
  in
  let text1, m1 = capture 1 in
  let text4, m4 = capture 4 in
  Alcotest.(check string) "saturation text identical at -j1 and -j4" text1 text4;
  Alcotest.(check bool) "saturation prints something" true (String.length text1 > 0);
  Alcotest.(check (pair (pair int (float 0.)) (pair int int)))
    "saturation meters identical" (meters_tuple m1) (meters_tuple m4);
  Alcotest.(check bool) "saturation sweeps admitted traffic" true (m1.E.accepted > 0);
  Alcotest.(check bool) "saturation GC collected versions" true (m1.E.gc_dropped > 0)

(* a single open-loop + GC point, digested down to its admission counters
   and the DES event total: identical through the pool at any jobs count *)
let test_open_loop_run_determinism () =
  let p =
    {
      E.default_params with
      nodes = 3;
      keys = 24;
      duration = 0.02;
      arrival = Some (Sss_workload.Driver.Poisson 4_000.0);
      queue_capacity = 8;
      workers = 4;
    }
  in
  let digest outs =
    List.map
      (fun (o : E.outcome) ->
        ((o.E.offered, o.E.accepted, o.E.rejected), (o.E.committed, o.E.des_events)))
      outs
  in
  let at jobs = digest (E.run_seeds (E.ctx ~jobs ()) p ~seeds:(Sweep.seeds 6)) in
  Alcotest.(check
      (list (pair (triple int int int) (pair int int))))
    "open-loop run_seeds identical at -j1 and -j4" (at 1) (at 4)

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
      ( "sweep",
        [ Alcotest.test_case "seeds and cross" `Quick test_sweep_helpers ] );
      ( "determinism",
        [
          Alcotest.test_case "figure -j1 = -j4" `Slow test_figure_determinism;
          Alcotest.test_case "run_seeds -j1 = -j4" `Quick test_run_seeds_determinism;
          Alcotest.test_case "chaos sweep -j1 = -j4" `Quick test_chaos_sweep_determinism;
          Alcotest.test_case "saturation -j1 = -j4" `Slow test_saturation_determinism;
          Alcotest.test_case "open-loop run -j1 = -j4" `Quick test_open_loop_run_determinism;
        ] );
    ]
