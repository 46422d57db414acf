(* Benchmark harness.

   Usage:  dune exec bench/main.exe -- [--scale full|quick|smoke]
             [--json FILE] [--observe] [-j N|max] [--speedup] [targets]

   Targets are the paper's evaluation artefacts: fig3 fig4a fig4b fig5 fig6
   fig7 fig8 abort-rate (see DESIGN.md §3 for the mapping), the extra
   experiments (ablation skewed durability saturation), plus `micro`
   (Bechamel micro-benchmarks of the core data structures).  With no target,
   everything runs.  Absolute throughput is simulator throughput; the shapes
   (orderings, ratios, crossovers) are what EXPERIMENTS.md compares against
   the paper.

   [--json FILE] additionally writes per-target simulator-performance
   metrics: wall-clock seconds, DES events executed and events/sec, virtual
   seconds simulated, and committed transactions per virtual second.  This
   is the measurement EXPERIMENTS.md's "Simulator performance" table is
   built from.  The report carries a "meta" block (schema version, scale,
   seed, config fingerprint) so regenerated files are comparable; see the
   schema note in EXPERIMENTS.md.

   [--observe] traces every figure run (Config.observe = true) and emits
   the first traced SSS run's sss_obs metrics — printed, and embedded as a
   "metrics" object when [--json] is also given.  By the observer-effect
   contract (docs/OBSERVABILITY.md) tracing never changes the measured
   numbers.

   [-j N] fans the independent simulator runs behind each figure across N
   domains (sss_par pool; "max" = Pool.default_jobs).  Output — figure text
   and every deterministic JSON field — is byte-identical at any N; only
   wall-clock fields change.  The smoke.sh parallel gate pins this.
   [--speedup] additionally times a quiet -j1 baseline per figure target
   and records jobs + per-target speedup in a "parallel" JSON block.

   Every JSON number of a target is a total over the runs its figure
   returned.  A target with open-loop Poisson runs (saturation, all) also
   reports "slo_sustained_rates": per system, the highest offered rate
   whose p99 sojourn met the fixed 5 ms bound (Experiments.slo_rate). *)

open Sss_experiments.Experiments

(* ---------- micro benchmarks (Bechamel) ---------- *)

let micro_tests () =
  let open Bechamel in
  let open Sss_data in
  let n = 20 in
  let rng = Sss_sim.Prng.create ~seed:1 in
  let vc1 = Vclock.of_array (Array.init n (fun i -> i * 3)) in
  let vc2 = Vclock.of_array (Array.init n (fun i -> 50 - i)) in
  let zipf = Sss_workload.Zipf.create ~n:5000 ~theta:0.99 in
  let squeue = Squeue.create () in
  for i = 0 to 15 do
    Squeue.insert_read squeue ~txn:{ Ids.node = i mod 4; local = i } ~sid:(i * 7)
  done;
  let nlog = Nlog.create ~nodes:n ~node:0 in
  for i = 1 to 1000 do
    let vc = Vclock.set (Vclock.of_array (Array.init n (fun w -> i - (w mod 3)))) 0 i in
    Nlog.add nlog ~txn:{ Ids.node = 0; local = i } ~vc ~ws:[ i mod 50 ]
  done;
  let has_read = Array.make n false in
  has_read.(3) <- true;
  let bound = Vclock.of_array (Array.make n 500) in
  let store = Mvstore.create ~nodes:n ~keys:[| 1 |] in
  for i = 1 to 32 do
    Mvstore.install store 1 ~value:"v"
      ~vc:(Vclock.set (Vclock.zero n) 0 i)
      ~writer:{ Ids.node = 0; local = i }
  done;
  [
    Test.make ~name:"vclock.max" (Staged.stage (fun () -> Vclock.max vc1 vc2));
    Test.make ~name:"vclock.leq" (Staged.stage (fun () -> Vclock.leq vc1 vc2));
    Test.make ~name:"zipf.sample" (Staged.stage (fun () -> Sss_workload.Zipf.sample zipf rng));
    Test.make ~name:"squeue.blocks_writer"
      (Staged.stage (fun () -> Squeue.blocks_writer squeue ~sid:60));
    Test.make ~name:"nlog.visible_max(unconstrained)"
      (Staged.stage (fun () ->
           Nlog.visible_max nlog ~has_read:(Array.make n false) ~bound ~cutoff:max_int));
    Test.make ~name:"nlog.visible_max(constrained)"
      (Staged.stage (fun () -> Nlog.visible_max nlog ~has_read ~bound ~cutoff:max_int));
    Test.make ~name:"mvstore.select"
      (Staged.stage (fun () ->
           Mvstore.select store 1 ~skip:(fun cvc -> Vclock.get cvc 0 > 16)));
  ]

let run_micro () =
  let open Bechamel in
  Printf.printf "\n== Micro-benchmarks (core data structures) ==\n%!";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let tests = Test.make_grouped ~name:"micro" ~fmt:"%s %s" (micro_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.merge ols instances (List.map (fun i -> Analyze.all ols i raw) instances)
  in
  Hashtbl.iter
    (fun _metric tbl ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-42s %10.1f ns/op\n" name est
          | _ -> Printf.printf "  %-42s (no estimate)\n" name)
        tbl)
    results;
  print_newline ()

(* ---------- json report ---------- *)

type target_report = {
  target : string;
  wall_seconds : float;
  baseline_wall : float option;  (* --speedup: the quiet -j1 wall clock *)
  runs : (params * outcome) list;  (* the figure's runs, in submission order *)
  (* Allocation probe: Gc deltas around the target, so allocation
     regressions show up in the recorded artifact, not just wall clock.
     [Sim.allocated_words] is per-domain, so at -j > 1 the numbers cover
     only the main domain's share; bench/smoke.sh records the -j 1 run. *)
  alloc_words : float;
  minor_collections : int;
  major_collections : int;
}

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Deterministic fingerprint of the parameters every target derives from:
   same binary + same scale => same hash, so regenerated BENCH_*.json files
   are comparable (EXPERIMENTS.md "Report schema"). *)
let config_fingerprint scale =
  let p = base_params scale in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf
          "nodes=%d;degree=%d;keys=%d;ro=%g;ro_ops=%d;locality=%g;clients=%d;warmup=%g;duration=%g;seed=%d;strict=%b;prio=%b;compress=%b;queue=%d;workers=%d"
          p.nodes p.degree p.keys p.ro_ratio p.ro_ops p.locality p.clients p.warmup p.duration
          p.seed p.strict p.priority_network p.compress p.queue_capacity p.workers))

let write_json file ~scale ~scale_v ~observe ~jobs ~speedup ~metrics reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n\
       \  \"scale\": \"%s\",\n\
       \  \"meta\": {\n\
       \    \"schema\": 6,\n\
       \    \"scale\": \"%s\",\n\
       \    \"seed\": %d,\n\
       \    \"config_md5\": \"%s\",\n\
       \    \"observe\": %b,\n\
       \    \"jobs\": %d\n\
       \  },\n\
       \  \"targets\": ["
       scale scale (base_params scale_v).seed (config_fingerprint scale_v) observe jobs);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 r.runs in
      let des_events = sum (fun o -> o.des_events) and committed = sum (fun o -> o.committed) in
      let virtual_seconds =
        List.fold_left (fun acc (_, o) -> acc +. o.virtual_seconds) 0.0 r.runs
      in
      let store_versions = sum (fun o -> o.store_versions) in
      let store_words = sum (fun o -> o.store_words) in
      let ratio a b = if b > 0.0 then a /. b else 0.0 in
      (* each system with Poisson runs, in run order, and its SLO verdict *)
      let slo_json =
        let name (p, _) = system_name p.system in
        let systems =
          List.fold_left
            (fun acc ((p, _) as run) ->
              match p.arrival with
              | Some (Sss_workload.Driver.Poisson _)
                when not (List.exists (String.equal (name run)) acc) ->
                  acc @ [ name run ]
              | _ -> acc)
            [] r.runs
        in
        let cell sys =
          Printf.sprintf "\"%s\": %s" (json_escape sys)
            (match slo_rate (List.filter (fun run -> String.equal (name run) sys) r.runs) with
            | Some v -> Printf.sprintf "%.0f" v
            | None -> "null")
        in
        match systems with
        | [] -> ""
        | _ ->
            Printf.sprintf "\n      \"slo_sustained_rates\": { %s },"
              (String.concat ", " (List.map cell systems))
      in
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\n\
           \      \"target\": \"%s\",\n\
           \      \"wall_seconds\": %.3f,\n\
           \      \"des_events\": %d,\n\
           \      \"des_events_per_sec\": %.0f,\n\
           \      \"virtual_seconds\": %.6f,\n\
           \      \"committed_txns\": %d,\n\
           \      \"virtual_throughput_txns_per_vsec\": %.1f,\n\
           \      \"runs\": %d,\n\
           \      \"offered\": %d,\n\
           \      \"accepted\": %d,\n\
           \      \"rejected\": %d,\n\
           \      \"store_versions\": %d,\n\
           \      \"store_words\": %d,\n\
           \      \"words_per_version\": %.2f,\n\
           \      \"gc_dropped_versions\": %d,%s\n\
           \      \"allocated_words\": %.0f,\n\
           \      \"words_per_des_event\": %.2f,\n\
           \      \"minor_collections\": %d,\n\
           \      \"major_collections\": %d\n\
           \    }"
           (json_escape r.target) r.wall_seconds des_events
           (ratio (float_of_int des_events) r.wall_seconds)
           virtual_seconds committed
           (ratio (float_of_int committed) virtual_seconds)
           (List.length r.runs)
           (sum (fun o -> o.offered))
           (sum (fun o -> o.accepted))
           (sum (fun o -> o.rejected))
           store_versions store_words
           (ratio (float_of_int store_words) (float_of_int store_versions))
           (sum (fun o -> o.gc_dropped_versions))
           slo_json r.alloc_words
           (ratio r.alloc_words (float_of_int des_events))
           r.minor_collections r.major_collections))
    reports;
  Buffer.add_string buf "\n  ]";
  if speedup then begin
    Buffer.add_string buf
      (Printf.sprintf ",\n  \"parallel\": {\n    \"jobs\": %d,\n    \"speedup_vs_j1\": {" jobs);
    let first = ref true in
    List.iter
      (fun r ->
        match r.baseline_wall with
        | Some base when r.wall_seconds > 0.0 ->
            if not !first then Buffer.add_char buf ',';
            first := false;
            Buffer.add_string buf
              (Printf.sprintf "\n      \"%s\": %.2f" (json_escape r.target)
                 (base /. r.wall_seconds))
        | _ -> ())
      reports;
    Buffer.add_string buf "\n    }\n  }"
  end;
  (match metrics with
  | Some m -> Buffer.add_string buf (Printf.sprintf ",\n  \"metrics\": %s" m)
  | None -> ());
  Buffer.add_string buf "\n}\n";
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote %s\n%!" file

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref Full in
  let json_file = ref None in
  let observe = ref false in
  let jobs = ref 1 in
  let speedup = ref false in
  let targets = ref [] in
  (* Every argument is checked before anything runs: a bad one prints the
     usage and exits 2. *)
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf
          "main.exe: %s\nusage: main.exe [--scale full|quick|smoke] [--json FILE] [--observe] \
           [-j N|max] [--speedup] [TARGET...]\ntargets: %s\n"
          msg (String.concat " " (figure_names @ [ "all"; "micro" ]));
        exit 2)
      fmt
  in
  let rec parse = function
    | [] -> ()
    | "--scale" :: s :: rest ->
        (scale := match scale_of_string s with Some v -> v | None -> bad "unknown scale %S" s);
        parse rest
    | "--json" :: f :: rest ->
        let dir = Filename.dirname f in
        if not (Sys.file_exists dir && Sys.is_directory dir) then bad "no directory %S" dir;
        json_file := Some f;
        parse rest
    | "--observe" :: rest ->
        observe := true;
        parse rest
    | ("-j" | "--jobs") :: n :: rest ->
        (jobs := match parse_jobs n with Some j -> j | None -> bad "bad -j value %S" n);
        parse rest
    | "--speedup" :: rest ->
        speedup := true;
        parse rest
    | t :: rest when Option.is_some (figure t) || String.equal t "micro" ->
        targets := t :: !targets;
        parse rest
    | t :: _ -> bad "unknown target or option %S" t
  in
  parse args;
  let targets =
    match List.rev !targets with
    | [] -> figure_names @ [ "micro" ]
    | ts -> ts
  in
  let scale = !scale in
  let jobs = !jobs in
  let speedup = !speedup && jobs > 1 in
  (* Resize the minor heap before any domain exists (Sim's comment). *)
  Sss_sim.Sim.tune_gc ();
  let run_ctx = ctx ~jobs ~observe_all:!observe () in
  let quiet_ctx = ctx ~jobs:1 ~observe_all:!observe ~out:ignore () in
  let scale_name = scale_name scale in
  Printf.printf "SSS reproduction benchmarks (scale: %s, jobs: %d)\n" scale_name jobs;
  let reports = ref [] in
  let time f =
    let start = (Unix.gettimeofday () [@wallclock_ok]) in
    let v = f () in
    (v, (Unix.gettimeofday () [@wallclock_ok]) -. start)
  in
  (* Wrap a measured target with the Gc allocation probe (main domain). *)
  let time_alloc f =
    let s0 = Gc.quick_stat () in
    let w0 = Sss_sim.Sim.allocated_words () in
    let v, wall = time f in
    let w1 = Sss_sim.Sim.allocated_words () in
    let s1 = Gc.quick_stat () in
    ( v,
      wall,
      w1 -. w0,
      s1.Gc.minor_collections - s0.Gc.minor_collections,
      s1.Gc.major_collections - s0.Gc.major_collections )
  in
  List.iter
    (fun t ->
      match figure t with
      | Some fig ->
          let baseline_wall =
            if speedup then begin
              let _, wall = time (fun () -> fig quiet_ctx scale) in
              Some wall
            end
            else None
          in
          let runs, wall_seconds, alloc_words, minor_collections, major_collections =
            time_alloc (fun () -> fig run_ctx scale)
          in
          reports :=
            { target = t; wall_seconds; baseline_wall; runs; alloc_words;
              minor_collections; major_collections }
            :: !reports
      | None (* "micro": parse admits no other target *) ->
          let (), wall_seconds = time run_micro in
          reports :=
            { target = t; wall_seconds; baseline_wall = None; runs = [];
              alloc_words = 0.0; minor_collections = 0; major_collections = 0 }
            :: !reports)
    targets;
  let metrics =
    if not !observe then None
    else
      List.find_map
        (fun r ->
          List.find_map
            (fun ((p : params), (o : outcome)) -> if p.system = Sss then o.metrics else None)
            r.runs)
        (List.rev !reports)
  in
  Option.iter (Printf.printf "\n== Observed metrics (first traced SSS run) ==\n%s\n%!") metrics;
  match !json_file with
  | None -> ()
  | Some f ->
      write_json f ~scale:scale_name ~scale_v:scale ~observe:!observe ~jobs ~speedup
        ~metrics
        (List.rev !reports)
