(* Seed/configuration sweep for the SSS checker properties.  Exits non-zero
   on the first violation, printing the offending configuration.

   [-j N] fans the independent runs of each sweep across N domains
   (sss_par pool; "max" = Pool.default_jobs).  Tasks never print — every
   FAIL line and summary is emitted from the merged results in submission
   order, so the output is identical at any N. *)

open Sss_sim
open Sss_data
open Sss_kv
open Sss_experiments.Experiments
module Store = Sss_experiments.Store
module Pool = Sss_par.Pool
module Driver = Sss_workload.Driver

(* Seeds [1; ...; n], and the row-major (config x seed) grid: the
   submission order every sweep below fans through the pool. *)
let seeds n = List.init n (fun i -> i + 1)

let cross xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* --observe: attach the sss_obs sink to every SSS run and report the first
   run's metrics as a section at the end.  The observer-effect contract says
   this must not change any committed count or checker verdict. *)

(* Drive [system] on a fresh simulator.  Runs return their checks, not
   their history: a pool task checks its own run, and a sweep holds no
   history past it. *)
let checked_run ?plan ~ro ~clients ~duration system (config : Config.t) =
  let (Store.Store s) = Store.create system (Sim.create ()) config in
  let r =
    Store.drive ?plan s
      ~profile:(Driver.paper_profile ~read_only_ratio:ro)
      ~load:
        { Driver.default_load with clients_per_node = clients; warmup = 0.005; duration;
          seed = config.seed }
  in
  ( r.result.committed,
    Store.verdicts r.system r.history ~quiescent:(r.quiescent ()),
    Option.map Sss_obs.Obs.metrics_json r.obs )

(* Drive one store of [system] on the small 4-node sweep cluster (ROCOCO
   unreplicated, as in the paper's comparisons). *)
let sweep_run ?plan ~config ~clients ~duration system =
  let committed, checks, _ =
    checked_run ?plan ~ro:0.5 ~clients ~duration system
      { config with Config.nodes = 4; replication_degree = Store.paper_degree system;
        total_keys = 24 }
  in
  (committed, checks)

(* Print a FAIL line for every failed verdict, [where name] naming the run.
   With [tolerate], failures of the two ordering properties are counted as
   divergence reports instead.  Returns the failure and divergence counts. *)
let report ?(tolerate = false) ~where checks =
  List.fold_left
    (fun (failed, diverged) (name, verdict) ->
      match verdict with
      | Store.Pass | Not_promised -> (failed, diverged)
      | Fail _
        when tolerate
             && (String.equal name "external-consistency" || String.equal name "serializability")
        ->
          (failed, diverged + 1)
      | Fail msg ->
          Printf.printf "FAIL %s: %s\n%!" (where name) msg;
          (failed + 1, diverged))
    (0, 0) checks

let lower system = String.lowercase_ascii (system_name system)

(* One baseline seed: the three non-SSS systems, checks in 2PC, ROCOCO,
   Walter order (the print order of the pre-pool sequential sweep). *)
let baseline_one seed =
  List.map
    (fun system ->
      ( lower system,
        snd (sweep_run ~config:{ Config.default with seed } ~clients:4 ~duration:0.04 system) ))
    [ Twopc; Rococo; Walter ]

let baseline_sweep pool =
  let seeds = seeds 8 in
  let failures =
    List.fold_left2
      (fun acc seed per_system ->
        List.fold_left
          (fun acc (system, checks) ->
            acc
            + fst
                (report checks ~where:(fun name ->
                     Printf.sprintf "%s %s seed=%d" system name seed)))
          acc per_system)
      0 seeds
      (Pool.map_list pool baseline_one seeds)
  in
  Printf.printf "baselines: %d runs, %d failures\n%!" (3 * List.length seeds) failures;
  failures

(* ---------------------------------------------------------------- *)
(* Chaos mode (--chaos <plan>): run all four systems under a fault plan
   with fault tolerance on, across 20 seeds, and require checker-accepted
   histories throughout.  The plan's own seed is offset by the sweep seed
   so both the workload and the injected faults vary together.  Chaos runs
   never feed the paper-shape figures (see EXPERIMENTS.md). *)

(* One chaos seed: all four systems; returns each system's name,
   committed count and checks, in [chaos_systems] order.  [durability]
   turns on write-ahead logging, so a fail-stopped node replays its log
   instead of just dropping messages. *)
let chaos_systems = [ Sss; Twopc; Walter; Rococo ]

let chaos_one ~durability base_plan seed =
  let plan = { base_plan with Sss_chaos.Chaos.seed = base_plan.Sss_chaos.Chaos.seed + seed } in
  let config = { Config.default with seed; fault_tolerance = true; durability } in
  List.map
    (fun system ->
      let committed, checks = sweep_run ~plan ~config ~clients:2 ~duration:0.03 system in
      (lower system, committed, checks))
    chaos_systems

(* [chaos_one] over [seeds]: print every failed check, return each
   system's committed count and the failure count. *)
let system_sweep pool ~label ~durability plan seeds =
  List.fold_left2
    (fun (committed, failures) seed runs ->
      ( List.map2 (fun (system, n) (_, c, _) -> (system, n + c)) committed runs,
        List.fold_left
          (fun acc (system, _, checks) ->
            acc
            + fst
                (report checks ~where:(fun name ->
                     Printf.sprintf "%s %s seed=%d %s" label system seed name)))
          failures runs ))
    (List.map (fun system -> (lower system, 0)) chaos_systems, 0) seeds
    (Pool.map_list pool (chaos_one ~durability plan) seeds)

let total committed = List.fold_left (fun acc (_, n) -> acc + n) 0 committed

(* Durable crash-recovery sweep (always on): every system with write-ahead
   logging enabled, one node fail-stopped mid-run and restarted through log
   replay, across 10 seeds.  Histories must stay checker-accepted —
   including no torn commits — and the cluster must end quiescent.  The
   line names each system's committed count as well as the total. *)
let durability_sweep pool =
  let plan = Sss_chaos.Chaos.crash_restart ~seed:0 ~node:2 ~at:0.015 ~restart_at:0.019 in
  let seeds = seeds 10 in
  let committed, failures = system_sweep pool ~label:"durable" ~durability:true plan seeds in
  Printf.printf "durability sweep: %d seeds x 4 systems, %d committed (%s), %d failures\n%!"
    (List.length seeds) (total committed)
    (String.concat ", " (List.map (fun (system, n) -> Printf.sprintf "%s %d" system n) committed))
    failures;
  failures

let chaos_sweep pool plan_text =
  let module Chaos = Sss_chaos.Chaos in
  let plan =
    match Chaos.parse plan_text with
    | Ok p -> p
    | Error e ->
        Printf.eprintf "bad --chaos plan: %s\n" e;
        exit 2
  in
  (match Chaos.validate ~nodes:4 plan with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "invalid --chaos plan: %s\n" e;
      exit 2);
  let committed, failures = system_sweep pool ~label:"chaos" ~durability:false plan (seeds 20) in
  Printf.printf "chaos sweep: 20 seeds x 4 systems, %d committed, %d failures\n%!"
    (total committed) failures;
  exit (if failures > 0 then 1 else 0)

(* The SSS sweeps over a (configuration, seed) grid.  [Matrix] runs the
   hardened mode and must be violation-free.  [Torture] runs it at
   keys-per-client ratio 0.5, ~50x hotter than anything the paper
   evaluates, where rare Adya divergences between concurrent writers are
   still reachable (DESIGN.md "Known gap").  [Paper_mode] runs the paper's
   literal release, whose violations are the documented finding (DESIGN.md
   §8).  Those two count ordering violations as divergence reports rather
   than asserting zero; liveness and the per-transaction properties must
   still hold.  Returns the failures and the first run's metrics. *)
type sweep = Matrix | Torture | Paper_mode

let sss_sweep pool ~observe kind grid =
  let results =
    Pool.map_list pool
      (fun ((nodes, degree, keys, ro, clients), seed) ->
        checked_run ~ro ~clients ~duration:0.04 Sss
          { Config.default with nodes; replication_degree = degree; total_keys = keys; seed;
            strict_order = kind <> Paper_mode; observe })
      grid
  in
  let last_seed = List.fold_left (fun m (_, seed) -> Int.max m seed) 0 grid in
  let committed, failures, diverged =
    List.fold_left2
      (fun (committed, failures, diverged) ((nodes, degree, keys, ro, _), seed) (c, checks, _) ->
        let where name =
          match kind with
          | Matrix ->
              Printf.sprintf "%s: nodes=%d degree=%d keys=%d ro=%.1f seed=%d (%d committed)"
                name nodes degree keys ro seed c
          | Torture -> Printf.sprintf "torture %s seed=%d" name seed
          | Paper_mode ->
              Printf.sprintf "paper-mode %s nodes=%d keys=%d seed=%d" name nodes keys seed
        in
        let f, d = report ~tolerate:(kind <> Matrix) checks ~where in
        if kind = Matrix && seed = last_seed then
          Printf.printf "config nodes=%d degree=%d keys=%d ro=%.1f done\n%!" nodes degree keys
            ro;
        (committed + c, failures + f, diverged + d))
      (0, 0, 0) grid results
  in
  let runs = List.length grid in
  (match kind with
  | Matrix -> ()
  | Torture ->
      Printf.printf "torture (keys/client=0.5): %d runs, %d committed, %d divergence reports\n"
        runs committed diverged
  | Paper_mode ->
      Printf.printf
        "paper mode: %d runs, %d committed, %d divergence reports (the documented §8 finding)\n"
        runs committed diverged);
  (failures, List.find_map (fun (_, _, metrics) -> metrics) results)

(* --open: the large open-loop ladder — 100 then 200 nodes, 1M keys each,
   Poisson arrivals, online version GC on.  The store starts at keys x
   degree versions; GC must keep retention flat, so the end-of-run count
   may exceed that baseline only by the in-flight margin (versions newer
   than the cluster watermark).  Each rung exits non-zero if retention
   grew by more than half of what the run installed, or if the GC never
   reclaimed anything.  A sampler fiber records peak resident store words
   ([Kv.mem_words]) across the run, and the 100-node rung bounds the
   store's footprint at 36 words/version: slot columns and value, plus
   1 + nodes words per distinct writer, whose commit clock its versions
   share.  A private 101-entry clock per version (list cons 3 + boxed
   record 4 + clock array 102) would cost ~109, so the bound catches a
   store that copies clocks again.  Once the cluster is quiescent, every
   rung runs the checker battery (SSS promises all five properties) over
   the history it recorded. *)
let open_rung ~nodes ~keys ~assert_footprint () =
  let (Store.Store s) =
    Store.create Sss (Sim.create ())
      { Config.default with nodes; replication_degree = 2; total_keys = keys; seed = 42 }
  in
  let cl = Option.get s.kv in
  let baseline = Kv.version_count cl in
  let warmup = 0.002 and duration = 0.03 in
  let peak = ref 0 in
  Sim.spawn s.sim (fun () ->
      let deadline = warmup +. duration in
      while Sim.now s.sim < deadline do
        peak := Stdlib.max !peak (Mvstore.mem_total (Kv.mem_words cl));
        Sim.sleep s.sim 0.001
      done);
  let r =
    Store.drive s
      ~profile:(Driver.paper_profile ~read_only_ratio:0.5)
      ~load:
        {
          Driver.default_load with
          warmup;
          duration;
          seed = 42;
          open_loop =
            Some
              { Driver.arrival = Driver.Poisson 2000.0; queue_capacity = 64; workers_per_node = 4 };
        }
  in
  let result = r.result in
  let retained = Kv.version_count cl in
  let refreshes, dropped_v, dropped_e = Kv.gc_stats cl in
  let slack = retained - baseline in
  let installed = slack + dropped_v in
  let mem = Kv.mem_words cl in
  peak := Stdlib.max !peak (Mvstore.mem_total mem);
  let wpv = Mvstore.words_per_version mem in
  Printf.printf
    "open-loop target: %d nodes, %dk keys: %d offered, %d accepted, %d committed\n"
    nodes (keys / 1000) result.offered result.accepted result.committed;
  Printf.printf
    "  versions: baseline %d, installed %d, dropped %d, retained %+d (%d watermark refreshes, %d log entries dropped)\n"
    baseline installed dropped_v slack refreshes dropped_e;
  Printf.printf "  store: %d resident words (peak %d), %.2f words/version\n"
    (Mvstore.mem_total mem) !peak wpv;
  let failures = ref 0 in
  if result.committed = 0 then begin
    incr failures;
    Printf.printf "FAIL open-loop: nothing committed\n"
  end;
  if dropped_v = 0 then begin
    incr failures;
    Printf.printf "FAIL open-loop: GC reclaimed no versions\n"
  end;
  if slack * 2 > installed then begin
    incr failures;
    Printf.printf "FAIL open-loop: version retention not flat (%d of %d installed remain)\n"
      slack installed
  end;
  if assert_footprint && wpv > 36.0 then begin
    incr failures;
    Printf.printf
      "FAIL open-loop: %.2f words/version exceeds the 36.0 bound (a clock per version costs ~109)\n"
      wpv
  end;
  Printf.printf "  checked: %d transactions\n" (Sss_consistency.Checker.txn_count r.history);
  let verdicts = Store.verdicts r.system r.history ~quiescent:(r.quiescent ()) in
  let failures = !failures + fst (report verdicts ~where:(fun n -> "open-loop " ^ n)) in
  Printf.printf "open-loop target: %d failures\n" failures;
  failures

let open_loop_target () =
  let f100 = open_rung ~nodes:100 ~keys:1_000_000 ~assert_footprint:true () in
  let f200 = open_rung ~nodes:200 ~keys:1_000_000 ~assert_footprint:false () in
  f100 + f200

let () =
  let chaos_plan = ref None in
  let observe = ref false in
  let open_target = ref false in
  let jobs = ref 1 in
  Arg.parse
    [
      ( "--chaos",
        Arg.String (fun s -> chaos_plan := Some s),
        "PLAN  run the 4-system chaos sweep under a fault plan (DSL; see docs/FAULTS.md)" );
      ( "--observe",
        Arg.Set observe,
        " trace the SSS runs with sss_obs and print a metrics section (docs/OBSERVABILITY.md)" );
      ( "--open",
        Arg.Set open_target,
        " run only the 100/200-node open-loop GC target (flat version retention, checked history)" );
      ( "-j",
        Arg.String
          (fun s ->
            jobs :=
              match parse_jobs s with Some n -> n | None -> raise (Arg.Bad ("bad -j value " ^ s))),
        "N  fan sweep runs across N domains (\"max\" = all cores; default 1)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "stress [--chaos PLAN] [--observe] [--open] [-j N]";
  (* Resize the minor heap while the runtime is still single-domain. *)
  Sim.tune_gc ();
  if !open_target then exit (if open_loop_target () > 0 then 1 else 0);
  let pool = Pool.create ~jobs:!jobs in
  let observe = !observe in
  Option.iter (chaos_sweep pool) !chaos_plan;
  (* Contention here is measured in keys per client; the paper's evaluation
     never goes below 5000/200 = 25.  Our matrix reaches ratio ~1 — still
     an order of magnitude hotter — and must be violation-free. *)
  let configs =
    [
      (2, 1, 8, 0.5, 4);
      (3, 1, 24, 0.5, 4);
      (4, 2, 24, 0.5, 4);
      (4, 2, 32, 0.2, 6);
      (5, 3, 16, 0.8, 4);
      (6, 2, 48, 0.8, 6);
      (8, 2, 64, 0.5, 4);
    ]
  in
  let matrix = cross configs (seeds 12) in
  let failures, first_metrics = sss_sweep pool ~observe Matrix matrix in
  let torture = cross [ (4, 2, 8, 0.5, 4) ] (seeds 12) in
  let failures = failures + fst (sss_sweep pool ~observe Torture torture) in
  let paper_mode = cross configs (seeds 6) in
  let failures = failures + fst (sss_sweep pool ~observe Paper_mode paper_mode) in
  let failures = failures + baseline_sweep pool in
  let failures = failures + durability_sweep pool in
  (match first_metrics with
  | Some json -> Printf.printf "metrics (first observed SSS run): %s\n" json
  | None -> ());
  Printf.printf "stress: %d runs, %d failures\n" (List.length matrix) failures;
  exit (if failures > 0 then 1 else 0)
