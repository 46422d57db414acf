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
module Sweep = Sss_par.Sweep

(* --observe: attach the sss_obs sink to every SSS run and report the first
   run's metrics as a section at the end.  The observer-effect contract says
   this must not change any committed count or checker verdict. *)

let run_one ?(strict = true) ?(observe = false) ~nodes ~degree ~keys ~ro ~seed
    ~duration ~clients () =
  let sim = Sim.create () in
  let config =
    { Config.default with nodes; replication_degree = degree; total_keys = keys; seed;
      strict_order = strict; observe }
  in
  let (Store.Store s) = Store.create Sss sim config in
  let result =
    Sss_workload.Driver.run sim ~nodes ~total_keys:keys ~local_keys:s.local_keys
      ~profile:(Sss_workload.Driver.paper_profile ~read_only_ratio:ro)
      ~load:
        {
          Sss_workload.Driver.default_load with
          clients_per_node = clients;
          warmup = 0.005;
          duration;
          seed;
        }
      ~ops:s.ops
  in
  (result.Sss_workload.Driver.committed, Store.checks s, Option.map Sss_obs.Obs.metrics_json s.obs)

(* Drive one store of [system] on the small 4-node sweep cluster (ROCOCO
   unreplicated, as in the paper's comparisons); return the committed
   count and its promised checks plus quiescence. *)
let sweep_run ?durable ?plan ~config ~clients ~duration system =
  let sim = Sim.create () in
  let degree = if system = Rococo then 1 else 2 in
  let (Store.Store s) =
    Store.create system sim
      { config with Config.nodes = 4; replication_degree = degree; total_keys = 24 }
  in
  Option.iter (fun plan -> ignore (s.chaos ?durable plan : Sss_chaos.Chaos.handle)) plan;
  let r =
    Sss_workload.Driver.run sim ~nodes:4 ~total_keys:24 ~local_keys:s.local_keys
      ~profile:(Sss_workload.Driver.paper_profile ~read_only_ratio:0.5)
      ~load:
        {
          Sss_workload.Driver.default_load with
          clients_per_node = clients;
          warmup = 0.005;
          duration;
          seed = config.Config.seed;
        }
      ~ops:s.ops
  in
  (r.Sss_workload.Driver.committed, Store.checks s)

let lower system = String.lowercase_ascii (system_name system)

(* One baseline seed: the three non-SSS systems, checks in 2PC, ROCOCO,
   Walter order (the print order of the pre-pool sequential sweep). *)
let baseline_one seed =
  List.concat_map
    (fun system ->
      let _, checks =
        sweep_run ~config:{ Config.default with seed } ~clients:4 ~duration:0.04 system
      in
      List.map (fun (name, res) -> (lower system ^ " " ^ name, res)) checks)
    [ Twopc; Rococo; Walter ]

let baseline_sweep pool =
  let failures = ref 0 in
  let seeds = Sweep.seeds 8 in
  let results = Pool.map_list pool baseline_one seeds in
  List.iter2
    (fun seed checks ->
      List.iter
        (fun (name, res) ->
          match res with
          | Ok () -> ()
          | Error msg ->
              incr failures;
              Printf.printf "FAIL %s seed=%d: %s\n%!" name seed msg)
        checks)
    seeds results;
  let runs = 3 * List.length seeds in
  Printf.printf "baselines: %d runs, %d failures\n%!" runs !failures;
  !failures

(* ---------------------------------------------------------------- *)
(* Chaos mode (--chaos <plan>): run all four systems under a fault plan
   with fault tolerance on, across 20 seeds, and require checker-accepted
   histories throughout.  The plan's own seed is offset by the sweep seed
   so both the workload and the injected faults vary together.  Chaos runs
   never feed the paper-shape figures (see EXPERIMENTS.md). *)

(* One chaos seed: all four systems; returns the committed total and the
   per-system checks, in SSS, 2PC, Walter, ROCOCO order.  [durable] turns
   on write-ahead logging and wires the Chaos crash/restart hooks so a
   fail-stopped node replays its log instead of just dropping messages. *)
let chaos_one ?(durable = false) base_plan seed =
  let plan = { base_plan with Sss_chaos.Chaos.seed = base_plan.Sss_chaos.Chaos.seed + seed } in
  let config = { Config.default with seed; fault_tolerance = true; durability = durable } in
  let runs =
    List.map
      (fun system ->
        let committed, checks =
          sweep_run ~durable ~plan ~config ~clients:2 ~duration:0.03 system
        in
        (committed, (lower system, checks)))
      [ Sss; Twopc; Walter; Rococo ]
  in
  (List.fold_left (fun acc (c, _) -> acc + c) 0 runs, List.map snd runs)

(* [chaos_one] over [seeds]: print every failed check, return the
   committed total and the failure count. *)
let system_sweep pool ~label ?durable plan seeds =
  let failures = ref 0 and committed = ref 0 in
  List.iter2
    (fun seed (c, per_system) ->
      committed := !committed + c;
      List.iter
        (fun (system, checks) ->
          List.iter
            (fun (name, res) ->
              match res with
              | Ok () -> ()
              | Error msg ->
                  incr failures;
                  Printf.printf "FAIL %s %s seed=%d %s: %s\n%!" label system seed name msg)
            checks)
        per_system)
    seeds
    (Pool.map_list pool (chaos_one ?durable plan) seeds);
  (!committed, !failures)

(* Durable crash-recovery sweep (always on): every system with write-ahead
   logging enabled, one node fail-stopped mid-run and restarted through log
   replay, across 10 seeds.  Histories must stay checker-accepted —
   including no torn commits — and the cluster must end quiescent. *)
let durability_sweep pool =
  let module Chaos = Sss_chaos.Chaos in
  let plan =
    {
      Chaos.seed = 0;
      rules = [];
      events = [ Chaos.Crash { at = 0.015; restart_at = Some 0.019; node = 2 } ];
    }
  in
  let seeds = Sweep.seeds 10 in
  let committed, failures = system_sweep pool ~label:"durable" ~durable:true plan seeds in
  Printf.printf "durability sweep: %d seeds x 4 systems, %d committed, %d failures\n%!"
    (List.length seeds) committed failures;
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
  let committed, failures = system_sweep pool ~label:"chaos" plan (Sweep.seeds 20) in
  Printf.printf "chaos sweep: 20 seeds x 4 systems, %d committed, %d failures\n%!" committed
    failures;
  exit (if failures > 0 then 1 else 0)

(* --open: the large open-loop ladder — 100 then 200 nodes, 1M keys each,
   Poisson arrivals, online version GC on.  The store starts at keys x
   degree versions; GC must keep retention flat, so the end-of-run count
   may exceed that baseline only by the in-flight margin (versions newer
   than the cluster watermark).  Each rung exits non-zero if retention
   grew by more than half of what the run installed, or if the GC never
   reclaimed anything.  A sampler fiber records peak resident store words
   ([Kv.mem_words]) across the run, and the 100-node rung asserts the
   compact store's per-version footprint: the pre-arena layout priced a
   version at ~109 words there (list cons 3 + boxed record 4 + private
   101-entry clock array 102, before the value), so <= 36 words/version
   certifies the >= 3x reduction the arena store is gated on. *)
let open_rung ~nodes ~keys ~assert_footprint () =
  let degree = 2 in
  let sim = Sim.create () in
  let config =
    { Config.default with nodes; replication_degree = degree; total_keys = keys; seed = 42 }
  in
  let cl = Kv.create sim config in
  let ops =
    {
      Sss_workload.Driver.begin_txn = (fun ~node ~read_only -> Kv.begin_txn cl ~node ~read_only);
      read = Kv.read;
      write = Kv.write;
      commit = Kv.commit;
    }
  in
  let baseline = Kv.version_count cl in
  let warmup = 0.002 and duration = 0.03 in
  let peak = ref 0 in
  Sim.spawn sim (fun () ->
      let deadline = warmup +. duration in
      while Sim.now sim < deadline do
        peak := Stdlib.max !peak (Mvstore.mem_total (Kv.mem_words cl));
        Sim.sleep sim 0.001
      done);
  let result =
    Sss_workload.Driver.run sim ~nodes ~total_keys:keys
      ~local_keys:(fun n -> Replication.keys_at cl.State.repl n)
      ~profile:(Sss_workload.Driver.paper_profile ~read_only_ratio:0.5)
      ~load:
        {
          Sss_workload.Driver.default_load with
          warmup;
          duration;
          seed = 42;
          open_loop =
            Some
              {
                Sss_workload.Driver.arrival = Sss_workload.Driver.Poisson 2000.0;
                queue_capacity = 64;
                workers_per_node = 4;
              };
        }
      ~ops
  in
  let retained = Kv.version_count cl in
  let refreshes, dropped_v, dropped_e = Kv.gc_stats cl in
  let slack = retained - baseline in
  let installed = slack + dropped_v in
  let mem = Kv.mem_words cl in
  peak := Stdlib.max !peak (Mvstore.mem_total mem);
  let wpv = Mvstore.words_per_version mem in
  Printf.printf
    "open-loop target: %d nodes, %dk keys: %d offered, %d accepted, %d committed\n"
    nodes (keys / 1000) result.Sss_workload.Driver.offered result.Sss_workload.Driver.accepted
    result.Sss_workload.Driver.committed;
  Printf.printf
    "  versions: baseline %d, installed %d, dropped %d, retained %+d (%d watermark refreshes, %d log entries dropped)\n"
    baseline installed dropped_v slack refreshes dropped_e;
  Printf.printf "  store: %d resident words (peak %d), %.2f words/version\n"
    (Mvstore.mem_total mem) !peak wpv;
  let failures = ref 0 in
  if result.Sss_workload.Driver.committed = 0 then begin
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
      "FAIL open-loop: %.2f words/version exceeds the 36.0 bound (3x of the pre-arena ~109)\n"
      wpv
  end;
  (match Kv.quiescent cl with
  | Ok () -> ()
  | Error msg ->
      incr failures;
      Printf.printf "FAIL open-loop quiescent: %s\n" msg);
  Printf.printf "open-loop target: %d failures\n" !failures;
  !failures

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
        " run only the 100-node/1M-key open-loop GC target (flat version retention)" );
      ( "-j",
        Arg.String
          (fun s ->
            jobs :=
              if String.equal s "max" then Pool.default_jobs ()
              else
                match int_of_string_opt s with
                | Some n when n >= 1 -> n
                | _ -> raise (Arg.Bad ("bad -j value " ^ s))),
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
  let failures = ref 0 in
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
  let matrix_seeds = Sweep.seeds 12 in
  let grid = Sweep.cross configs matrix_seeds in
  let total = List.length grid in
  let results =
    Pool.map_list pool
      (fun ((nodes, degree, keys, ro, clients), seed) ->
        run_one ~observe ~nodes ~degree ~keys ~ro ~seed ~duration:0.04 ~clients ())
      grid
  in
  let first_metrics = ref None in
  let last_seed = List.length matrix_seeds in
  List.iter2
    (fun ((nodes, degree, keys, ro, _clients), seed) (committed, checks, metrics) ->
      (match (!first_metrics, metrics) with
      | None, Some json -> first_metrics := Some json
      | _ -> ());
      List.iter
        (fun (name, res) ->
          match res with
          | Ok () -> ()
          | Error msg ->
              incr failures;
              Printf.printf
                "FAIL %s: nodes=%d degree=%d keys=%d ro=%.1f seed=%d (%d committed): %s\n%!"
                name nodes degree keys ro seed committed msg)
        checks;
      if seed = last_seed then
        Printf.printf "config nodes=%d degree=%d keys=%d ro=%.1f done\n%!" nodes degree keys
          ro)
    grid results;
  (* Torture mode: keys-per-client ratio 0.5, ~50x hotter than anything the
     paper evaluates.  Rare Adya divergences between concurrent writers are
     still reachable here (see DESIGN.md "Known gap"); we report the rate
     rather than assert zero.  Liveness and the per-transaction properties
     must still hold. *)
  let torture_div = ref 0 and torture_committed = ref 0 in
  let torture_seeds = Sweep.seeds 12 in
  let torture_results =
    Pool.map_list pool
      (fun seed ->
        run_one ~observe ~nodes:4 ~degree:2 ~keys:8 ~ro:0.5 ~seed ~duration:0.04 ~clients:4
          ())
      torture_seeds
  in
  List.iter2
    (fun seed (committed, checks, _metrics) ->
      torture_committed := !torture_committed + committed;
      List.iter
        (fun (name, res) ->
          match (name, res) with
          | ("external-consistency" | "serializability"), Error _ -> incr torture_div
          | _, Ok () -> ()
          | _, Error msg ->
              incr failures;
              Printf.printf "FAIL torture %s seed=%d: %s\n%!" name seed msg)
        checks)
    torture_seeds torture_results;
  Printf.printf
    "torture (keys/client=0.5): %d runs, %d committed, %d divergence reports\n"
    (List.length torture_seeds) !torture_committed !torture_div;
  (* Paper mode across the same matrix: violations are the documented
     finding (DESIGN.md §8), so they are counted and reported, not
     asserted.  Liveness and per-transaction properties must still hold. *)
  let pm_div = ref 0 and pm_committed = ref 0 in
  let pm_grid = Sweep.cross configs (Sweep.seeds 6) in
  let pm_results =
    Pool.map_list pool
      (fun ((nodes, degree, keys, ro, clients), seed) ->
        run_one ~strict:false ~observe ~nodes ~degree ~keys ~ro ~seed ~duration:0.04
          ~clients ())
      pm_grid
  in
  List.iter2
    (fun ((nodes, _degree, keys, _ro, _clients), seed) (committed, checks, _metrics) ->
      pm_committed := !pm_committed + committed;
      List.iter
        (fun (name, res) ->
          match (name, res) with
          | ("external-consistency" | "serializability"), Error _ -> incr pm_div
          | _, Ok () -> ()
          | _, Error msg ->
              incr failures;
              Printf.printf "FAIL paper-mode %s nodes=%d keys=%d seed=%d: %s\n%!" name nodes
                keys seed msg)
        checks)
    pm_grid pm_results;
  Printf.printf
    "paper mode: %d runs, %d committed, %d divergence reports (the documented §8 finding)\n"
    (List.length pm_grid) !pm_committed !pm_div;
  failures := !failures + baseline_sweep pool;
  failures := !failures + durability_sweep pool;
  (match !first_metrics with
  | Some json -> Printf.printf "metrics (first observed SSS run): %s\n" json
  | None -> ());
  Printf.printf "stress: %d runs, %d failures\n" total !failures;
  exit (if !failures > 0 then 1 else 0)
