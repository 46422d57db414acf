open Sss_data
module Driver = Sss_workload.Driver
module Stats = Sss_workload.Stats

type system = Store.system = Sss | Walter | Twopc | Rococo

let system_name = Store.system_name

type outcome = {
  throughput : float;
  committed : int;
  aborted : int;
  abort_rate : float;
  mean_latency : float;
  p99_latency : float;
  mean_update_latency : float;
  mean_ro_latency : float;
  sss_internal : float option;
  sss_wait : float option;
  wait_covered_timeouts : int;
  wire_bytes : int;  (* SSS only: total message bytes (see compress_metadata) *)
  metrics : string option;  (* observe=true: the run's Obs.metrics_json *)
  des_events : int;  (* simulator events this run executed *)
  virtual_seconds : float;  (* virtual time this run simulated *)
  wal : Sss_storage.Storage.stats;
      (* SSS only: cluster-wide write-ahead-log telemetry; zeros when
         durability is off or the system does not expose it *)
  (* open-loop admission telemetry (zeros under the closed loop) *)
  offered : int;
  accepted : int;
  rejected : int;
  p99_sojourn : float;  (* completion - arrival, committed txns *)
  mean_sojourn : float;
  mean_queue_wait : float;
  (* storage-retention gauges at end of run (SSS only; zeros elsewhere) *)
  store_versions : int;
  store_words : int;
  store_mem : Mvstore.mem;
  gc_dropped_versions : int;
  gc_dropped_entries : int;
}

(* ---------- execution context ----------

   Every figure runs its points through a [ctx]: the domain pool that fans
   independent runs across cores (jobs = 1 by default, so nothing changes
   for existing callers), the bench [--observe] override, and the output
   sink the figure's text is printed through.  There is deliberately no
   module-level mutable state here — each run builds its own [Sim.t] and
   cluster, so runs are domain-safe by construction (lint rule R6). *)

type ctx = { pool : Sss_par.Pool.t; observe_all : bool; out : string -> unit }

let ctx ?(jobs = 1) ?(observe_all = false) ?(out = print_string) () =
  { pool = Sss_par.Pool.create ~jobs; observe_all; out }

let jobs c = Sss_par.Pool.jobs c.pool

(* Every figure run reports SSS's latency breakdown. *)
let collect_latencies (s : Store.t) =
  Option.iter (fun cl -> Sss_kv.Kv.set_collect_latencies cl true) s.kv

let run spec =
  let r = Spec.run ~setup:collect_latencies spec in
  let sss_internal, sss_wait, timeouts =
    match r.store.kv with
    | None -> (None, None, 0)
    | Some cl ->
        let stats = Sss_kv.Kv.stats cl in
        let lats = stats.Sss_kv.State.latencies in
        let n = List.length lats in
        if n = 0 then (None, None, stats.Sss_kv.State.wait_covered_timeouts)
        else begin
          let internal = ref 0.0 and wait = ref 0.0 in
          List.iter
            (fun (b, d, e) ->
              internal := !internal +. (d -. b);
              wait := !wait +. (e -. d))
            lats;
          ( Some (!internal /. float_of_int n),
            Some (!wait /. float_of_int n),
            stats.Sss_kv.State.wait_covered_timeouts )
        end
  in
  let sss f zero = match r.store.kv with Some cl -> f cl | None -> zero in
  let _, gc_versions, gc_entries = sss Sss_kv.Kv.gc_stats (0, 0, 0) in
  let d = r.result in
  {
    throughput = d.throughput;
    committed = d.committed;
    aborted = d.aborted;
    abort_rate = d.abort_rate;
    mean_latency = Stats.mean d.latency;
    p99_latency = Stats.percentile d.latency 0.99;
    mean_update_latency = Stats.mean d.update_latency;
    mean_ro_latency = Stats.mean d.ro_latency;
    sss_internal;
    sss_wait;
    wait_covered_timeouts = timeouts;
    wire_bytes = r.network.Sss_net.Network.bytes;
    metrics = Option.map Sss_obs.Obs.metrics_json r.store.obs;
    des_events = r.des_events;
    virtual_seconds = r.virtual_seconds;
    wal = sss Sss_kv.Kv.wal_stats Sss_storage.Storage.zero_stats;
    offered = d.offered;
    accepted = d.accepted;
    rejected = d.rejected;
    p99_sojourn = Stats.percentile d.sojourn 0.99;
    mean_sojourn = Stats.mean d.sojourn;
    mean_queue_wait = Stats.mean d.queue_wait;
    store_versions = sss Sss_kv.Kv.version_count 0;
    store_words = r.store_words;
    store_mem = sss Sss_kv.Kv.mem_words Mvstore.mem_zero;
    gc_dropped_versions = gc_versions;
    gc_dropped_entries = gc_entries;
  }

(* ---------- staged (two-phase) figure evaluation ----------

   A figure body is a function of [~run] and [~out] whose sequence of [run]
   calls depends only on its own parameters — never on outcomes.  That
   contract lets the same body be interpreted twice:

     phase 1 (record): [run] files the params away in submission order and
       returns a placeholder; [out] discards.  No simulation happens.
     fan-out: the recorded params are executed through the ctx's domain
       pool; results come back in submission-index order (Pool.map's
       ordering guarantee).
     phase 2 (replay): the body runs again, [run] now dealing the banked
       outcomes back in order and [out] printing for real.

   Because phase 2 is the only phase that prints and consumes results
   strictly in submission order, the figure's text and its returned runs
   are byte-identical at any [jobs]; test_par "figure -j1 = -j4" pins it. *)

let placeholder_outcome =
  {
    throughput = 0.0;
    committed = 0;
    aborted = 0;
    abort_rate = 0.0;
    mean_latency = 0.0;
    p99_latency = 0.0;
    mean_update_latency = 0.0;
    mean_ro_latency = 0.0;
    sss_internal = None;
    sss_wait = None;
    wait_covered_timeouts = 0;
    wire_bytes = 0;
    metrics = None;
    des_events = 0;
    virtual_seconds = 0.0;
    wal = Sss_storage.Storage.zero_stats;
    offered = 0;
    accepted = 0;
    rejected = 0;
    p99_sojourn = 0.0;
    mean_sojourn = 0.0;
    mean_queue_wait = 0.0;
    store_versions = 0;
    store_words = 0;
    store_mem = Mvstore.mem_zero;
    gc_dropped_versions = 0;
    gc_dropped_entries = 0;
  }

let staged ctx body =
  let specs = ref [] in
  body ~run:(fun p -> specs := p :: !specs; placeholder_outcome) ~out:ignore;
  let specs = List.rev !specs in
  let outs =
    Sss_par.Pool.map ctx.pool
      (fun (p : Spec.t) ->
        run (if ctx.observe_all then { p with config = { p.config with observe = true } } else p))
      (Array.of_list specs)
  in
  let idx = ref 0 in
  body
    ~run:(fun _ ->
      let o = outs.(!idx) in
      incr idx;
      o)
    ~out:ctx.out;
  List.combine specs (Array.to_list outs)

(* ---------- scales ---------- *)

type scale = Full | Quick | Smoke

let scales = [ ("full", Full); ("quick", Quick); ("smoke", Smoke) ]

let scale_of_string name = List.assoc_opt name scales

let scale_name scale = fst (List.find (fun (_, s) -> s = scale) scales)

let parse_jobs = function
  | "max" -> Some (Sss_par.Pool.default_jobs ())
  | s -> ( match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)

let node_counts = function
  | Full -> [ 5; 10; 15; 20 ]
  | Quick -> [ 5; 10; 15 ]
  | Smoke -> [ 3; 5 ]

let keyspaces = function
  | Full -> [ 5000; 10000 ]
  | Quick -> [ 1000; 2000 ]
  | Smoke -> [ 200 ]

(* The paper's defaults (§V): 5 nodes, degree 2, 5000 keys, 50% read-only,
   the paper's literal release (not the hardened ordering), no history;
   10 clients per node, 10 ms warmup and 40 ms measured at full scale. *)
let base_spec scale =
  let clients_per_node, warmup, duration =
    match scale with
    | Full -> (10, 0.01, 0.04)
    | Quick -> (8, 0.008, 0.025)
    | Smoke -> (4, 0.004, 0.01)
  in
  {
    Spec.system = Sss;
    config =
      { Sss_kv.Config.default with nodes = 5; total_keys = 5000; record_history = false;
        seed = 42; strict_order = false };
    profile = Driver.paper_profile ~read_only_ratio:0.5;
    load = { Driver.default_load with clients_per_node; warmup; duration; seed = 42 };
    plan = None;
  }

(* [s] on [nodes] nodes over [keys] keys, at replication [degree]. *)
let sized (s : Spec.t) ?(degree = s.config.replication_degree) ~nodes keys =
  { s with config = { s.config with nodes; total_keys = keys; replication_degree = degree } }

(* [s] at read-only ratio [ro], with [ro_ops] reads per read-only transaction. *)
let mix (s : Spec.t) ?(ro_ops = s.profile.ro_ops) ro =
  { s with profile = { s.profile with read_only_ratio = ro; ro_ops } }

let with_clients (s : Spec.t) clients_per_node =
  { s with load = { s.load with clients_per_node } }

let ktxs o = o.throughput /. 1000.0

let pr out fmt = Printf.ksprintf out fmt

let header out title = pr out "\n== %s ==\n" title

(* The row x column tables: a header line of [corner] and the [cols] labels,
   then per row its [label] and one [cell] per column.  Labels fill the
   first [width] characters, cells [fmt] (default 14 wide, one decimal). *)
let table out ?(width = 6) ?(fmt = format_of_string "%14.1f") ~corner ~cols ~label ~rows cell =
  pr out "%-*s" width corner;
  List.iter (fun (name, _) -> pr out "%14s" name) cols;
  pr out "\n";
  List.iter
    (fun row ->
      pr out "%-*s" width (label row);
      List.iter (fun (_, col) -> pr out fmt (cell row col)) cols;
      pr out "\n")
    rows

let by_system = List.map (fun sys -> (system_name sys, sys))

(* Figures 3 and 7: KTxs/sec of 2PC, Walter and SSS at each key space, by
   node count. *)
let system_grid scale ~run ~out (p : Spec.t) =
  let cols =
    List.concat_map
      (fun sys ->
        List.map
          (fun keys -> (Printf.sprintf "%s-%dk" (system_name sys) (keys / 1000), (sys, keys)))
          (keyspaces scale))
      [ Twopc; Walter; Sss ]
  in
  table out ~corner:"nodes" ~cols ~label:string_of_int ~rows:(node_counts scale)
    (fun nodes (system, keys) -> ktxs (run { (sized p ~nodes keys) with system }))

(* ---------- figures ---------- *)

let fig3_body scale ~run ~out =
  header out "Figure 3: throughput vs nodes, replication degree 2 (KTxs/sec)";
  List.iter
    (fun ro ->
      pr out "-- %d%% read-only --\n" (int_of_float (ro *. 100.));
      system_grid scale ~run ~out (mix (base_spec scale) ro))
    [ 0.2; 0.5; 0.8 ]

let fig3 ctx scale = staged ctx (fig3_body scale)

let fig4a_body scale ~run ~out =
  header out "Figure 4(a): maximum attainable throughput, 50% read-only, 5k keys (KTxs/sec)";
  let base = base_spec scale in
  let keys = List.hd (keyspaces scale) in
  let client_options =
    match scale with Full -> [ 5; 10; 16 ] | Quick -> [ 5; 10 ] | Smoke -> [ 4 ]
  in
  table out ~corner:"nodes" ~cols:(by_system [ Sss; Twopc ]) ~label:string_of_int
    ~rows:(node_counts scale) (fun nodes system ->
      List.fold_left
        (fun acc clients ->
          let o = run { (with_clients (sized base ~nodes keys) clients) with system } in
          Stdlib.max acc (ktxs o))
        0.0 client_options)

let fig4a ctx scale = staged ctx (fig4a_body scale)

let latency_nodes = function Full -> 20 | Quick -> 10 | Smoke -> 5

let fig4b_body scale ~run ~out =
  header out
    "Figure 4(b): transaction latency begin->external commit (ms), 50% read-only, 5k keys";
  let nodes = latency_nodes scale in
  let base = sized (base_spec scale) ~nodes (List.hd (keyspaces scale)) in
  (* mean over ALL committed transactions: the paper's measurement includes
     read-only transactions, whose cost is where SSS and the 2PC baseline
     differ most (2PC validates and locks them). *)
  pr out "(nodes = %d)\n%-10s%14s%14s%16s%16s\n" nodes "clients" "SSS" "2PC"
    "SSS(update)" "2PC(update)";
  List.iter
    (fun clients ->
      let sss = run (with_clients base clients) in
      let tp = run { (with_clients base clients) with system = Twopc } in
      pr out "%-10d%14.3f%14.3f%16.3f%16.3f\n" clients (sss.mean_latency *. 1e3)
        (tp.mean_latency *. 1e3)
        (sss.mean_update_latency *. 1e3)
        (tp.mean_update_latency *. 1e3))
    [ 1; 3; 5; 10 ]

let fig4b ctx scale = staged ctx (fig4b_body scale)

let fig5_body scale ~run ~out =
  header out
    "Figure 5: SSS update latency breakdown (ms): execution+internal vs snapshot-queue wait";
  let nodes = latency_nodes scale in
  let base = sized (base_spec scale) ~nodes (List.hd (keyspaces scale)) in
  pr out "(nodes = %d)\n%-10s%14s%14s%14s%10s\n" nodes "clients" "total" "internal"
    "sq-wait" "wait%";
  List.iter
    (fun clients ->
      let o = run (with_clients base clients) in
      match (o.sss_internal, o.sss_wait) with
      | Some internal, Some wait ->
          let total = internal +. wait in
          pr out "%-10d%14.3f%14.3f%14.3f%9.1f%%\n" clients (total *. 1e3)
            (internal *. 1e3) (wait *. 1e3)
            (100.0 *. wait /. total)
      | _ -> pr out "%-10d (no committed update transactions)\n" clients)
    [ 1; 3; 5; 10 ]

let fig5 ctx scale = staged ctx (fig5_body scale)

let fig6_body scale ~run ~out =
  header out "Figure 6: SSS vs ROCOCO vs 2PC, no replication, 5k keys (KTxs/sec)";
  let base = base_spec scale in
  let keys = List.hd (keyspaces scale) in
  List.iter
    (fun ro ->
      pr out "-- %d%% read-only --\n" (int_of_float (ro *. 100.));
      table out ~corner:"nodes" ~cols:(by_system [ Sss; Twopc; Rococo ]) ~label:string_of_int
        ~rows:(node_counts scale) (fun nodes system ->
          ktxs (run { (mix (sized base ~degree:1 ~nodes keys) ro) with system })))
    [ 0.2; 0.8 ]

let fig6 ctx scale = staged ctx (fig6_body scale)

let fig7_body scale ~run ~out =
  header out "Figure 7: throughput, 80% read-only, 50% locality, degree 2 (KTxs/sec)";
  let base = base_spec scale in
  system_grid scale ~run ~out
    { base with profile = { base.profile with read_only_ratio = 0.8; locality = 0.5 } }

let fig7 ctx scale = staged ctx (fig7_body scale)

let fig8_body scale ~run ~out =
  header out "Figure 8: speedup of SSS as read-only size grows (15 nodes, 80% read-only)";
  let base = base_spec scale in
  let nodes = match scale with Full -> 15 | Quick -> 10 | Smoke -> 5 in
  pr out "(nodes = %d)\n%-8s" nodes "ro-size";
  List.iter
    (fun keys ->
      pr out "%18s%18s"
        (Printf.sprintf "SSS/ROCOCO-%dk" (keys / 1000))
        (Printf.sprintf "SSS/2PC-%dk" (keys / 1000)))
    (keyspaces scale);
  pr out "\n";
  List.iter
    (fun ro_ops ->
      pr out "%-8d" ro_ops;
      List.iter
        (fun keys ->
          let o system = run { (mix (sized base ~degree:1 ~nodes keys) ~ro_ops 0.8) with system } in
          let sss = (o Sss).throughput in
          let roc = (o Rococo).throughput in
          let tp = (o Twopc).throughput in
          pr out "%18.2f%18.2f" (sss /. roc) (sss /. tp))
        (keyspaces scale);
      pr out "\n")
    [ 2; 4; 8; 16 ]

let fig8 ctx scale = staged ctx (fig8_body scale)

let abort_rate_body scale ~run ~out =
  header out "In-text: SSS abort rate at 20% read-only (paper: 6-28% at 5k, 4-14% at 10k)";
  let base = mix (base_spec scale) 0.2 in
  table out ~fmt:"%13.1f%%" ~corner:"nodes"
    ~cols:(List.map (fun keys -> (Printf.sprintf "%dk keys" (keys / 1000), keys)) (keyspaces scale))
    ~label:string_of_int ~rows:(node_counts scale) (fun nodes keys ->
      (run (sized base ~nodes keys)).abort_rate *. 100.0)

let abort_rate ctx scale = staged ctx (abort_rate_body scale)

let ablation_body scale ~run ~out =
  header out
    "Ablation: SSS paper-literal release vs hardened external-commit ordering (KTxs/sec)";
  let nodes = latency_nodes scale in
  let base = sized (base_spec scale) ~nodes (List.hd (keyspaces scale)) in
  pr out "(nodes = %d, 80%% read-only)\n%-8s%14s%14s%10s\n" nodes "ro-size" "paper"
    "hardened" "cost";
  List.iter
    (fun ro_ops ->
      let o strict_order =
        let s = mix base ~ro_ops 0.8 in
        run { s with config = { s.config with replication_degree = 1; strict_order } }
      in
      let paper = ktxs (o false) and hard = ktxs (o true) in
      pr out "%-8d%14.1f%14.1f%9.0f%%\n" ro_ops paper hard
        (100. *. (paper -. hard) /. paper))
    [ 2; 8; 16 ];
  header out "Ablation: prioritized network queues (the §V optimization) (KTxs/sec)";
  pr out "(nodes = %d, 50%% read-only, saturated clients)\n%-12s%14s%14s\n" nodes
    "" "prioritized" "fifo";
  let o priority_network =
    let s = with_clients base (base.load.clients_per_node * 2) in
    run { s with config = { s.config with priority_network } }
  in
  let yes = o true and no = o false in
  pr out "%-12s%14.1f%14.1f\n" "throughput" (ktxs yes) (ktxs no);
  pr out "%-12s%13.3fms%13.3fms\n" "p99 latency" (yes.p99_latency *. 1e3)
    (no.p99_latency *. 1e3);
  header out "Ablation: vector-clock metadata compression (bytes on the wire)";
  let o compress_metadata = run { base with config = { base.config with compress_metadata } } in
  let comp = o true and rawb = o false in
  pr out "%-14s%16s%16s\n" "" "compressed" "raw";
  pr out "%-14s%13.1f KB%13.1f KB\n" "total traffic"
    (float_of_int comp.wire_bytes /. 1024.)
    (float_of_int rawb.wire_bytes /. 1024.);
  pr out "%-14s%13.0f  B%13.0f  B\n" "per txn"
    (float_of_int comp.wire_bytes /. float_of_int (max 1 comp.committed))
    (float_of_int rawb.wire_bytes /. float_of_int (max 1 rawb.committed))

let ablation ctx scale = staged ctx (ablation_body scale)

let skewed_body scale ~run ~out =
  header out "Extra (not in the paper): zipfian key popularity, 50% read-only (KTxs/sec)";
  let nodes = latency_nodes scale in
  let base = base_spec scale in
  pr out "(nodes = %d, theta on X)\n" nodes;
  table out ~width:8 ~corner:"theta" ~cols:(by_system [ Sss; Walter; Twopc; Rococo ])
    ~label:(Printf.sprintf "%.2f") ~rows:[ 0.0; 0.6; 0.9; 0.99 ] (fun theta system ->
      let s = sized base ~degree:(Store.paper_degree system) ~nodes (List.hd (keyspaces scale)) in
      let dist = if theta = 0.0 then Driver.Uniform else Driver.Zipfian theta in
      ktxs (run { s with system; load = { s.load with dist } }))

let skewed ctx scale = staged ctx (skewed_body scale)

let durability_body scale ~run ~out =
  header out "Durability: WAL group-commit overhead, and recovery vs checkpoint interval";
  let base = base_spec scale in
  let keys = List.hd (keyspaces scale) in
  (* (a) steady-state cost of the log: the same workload with durability
     off and on; durable commits pay the fsync before acknowledging *)
  pr out "-- overhead: durability off vs on (4 nodes, 50%% read-only) --\n";
  pr out "%-8s%12s%12s%14s%14s%8s\n" "system" "off KTxs" "on KTxs" "off upd ms" "on upd ms"
    "cost";
  List.iter
    (fun system ->
      let o durability =
        let s = sized base ~degree:(Store.paper_degree system) ~nodes:4 keys in
        run { s with system; config = { s.config with durability } }
      in
      let off = o false and on = o true in
      pr out "%-8s%12.1f%12.1f%14.3f%14.3f%7.0f%%\n" (system_name system) (ktxs off) (ktxs on)
        (off.mean_update_latency *. 1e3)
        (on.mean_update_latency *. 1e3)
        (100. *. (ktxs off -. ktxs on) /. Float.max 1e-9 (ktxs off)))
    [ Sss; Walter; Twopc; Rococo ];
  (* (b) the checkpoint-cadence trade: a crash at 15 ms (restart 19 ms)
     replays the log tail past the last completed checkpoint, so shorter
     intervals buy faster recovery with more checkpoint write traffic.  The
     crash needs the fault-tolerant transport, so survivors retry around
     the dead NIC. *)
  pr out "-- SSS recovery vs checkpoint interval (crash one node at 15 ms, restart 19 ms) --\n";
  pr out "%-12s%13s%12s%14s%12s\n" "interval ms" "checkpoints" "replayed" "recovery ms" "KTxs";
  let plan =
    Sss_chaos.Chaos.crash_restart ~seed:base.config.seed ~node:2 ~at:0.015 ~restart_at:0.019
  in
  let crashed = sized base ~nodes:4 keys in
  let crashed =
    {
      crashed with
      config = { crashed.config with durability = true; fault_tolerance = true };
      load = { crashed.load with warmup = 0.005; duration = 0.03 };
      plan = Some plan;
    }
  in
  List.iter
    (fun checkpoint_interval ->
      let o = run { crashed with config = { crashed.config with checkpoint_interval } } in
      let w = o.wal in
      pr out "%-12.1f%13d%12d%14.3f%12.1f\n" (checkpoint_interval *. 1e3)
        w.Sss_storage.Storage.checkpoints w.Sss_storage.Storage.replayed_records
        (w.Sss_storage.Storage.recovery_seconds *. 1e3)
        (ktxs o))
    (match scale with
    | Smoke -> [ 0.005; 0.05 ]
    | Quick | Full -> [ 0.002; 0.005; 0.01; 0.02; 0.05 ])

let durability ctx scale = staged ctx (durability_body scale)

(* offered arrivals per second per node; the ladder must cross each
   protocol's service capacity so the knee and the post-knee sojourn
   blow-up are both visible *)
let saturation_rates = function
  | Full -> [ 10_000.; 20_000.; 40_000.; 80_000.; 160_000. ]
  | Quick -> [ 10_000.; 20_000.; 40_000.; 80_000. ]
  | Smoke -> [ 5_000.; 20_000.; 80_000. ]

(* The saturation figure's p99 sojourn bound, in milliseconds. *)
let slo_ms = 5.0

let slo_rate runs =
  List.fold_left
    (fun acc ((s : Spec.t), o) ->
      match s.load.open_loop with
      | Some { arrival = Driver.Poisson rate; _ } when o.p99_sojourn <= slo_ms /. 1e3 ->
          Some (Option.fold ~none:rate ~some:(Float.max rate) acc)
      | _ -> acc)
    None runs

let saturation_body scale ~run ~out =
  header out "Saturation: open-loop throughput and p99 sojourn vs offered load";
  let keys = List.hd (keyspaces scale) in
  let nodes = match scale with Full -> 10 | Quick -> 5 | Smoke -> 3 in
  let base = sized (base_spec scale) ~nodes keys in
  let queue_capacity = 64 and workers_per_node = 10 in
  let arriving system arrival =
    { base with system;
      load = { base.load with open_loop = Some { arrival; queue_capacity; workers_per_node } } }
  in
  (* An open-loop client observes at minimum the protocol's blocking
     structure: a read round plus a commit round, each a request/reply
     exchange — about 2 RTTs plus message service, independent of load.
     Didona & Zwaenepoel (ATC'19) use this floor to anchor saturation
     plots; points near it are uncontended, points far above it are
     queueing. *)
  let nc = Sss_net.Network.default_config in
  let floor_s =
    4.0 *. (nc.Sss_net.Network.latency_base +. nc.Sss_net.Network.cpu_per_message)
  in
  pr out
    "(nodes = %d, %d keys, 50%% read-only, Poisson arrivals per node,\n\
    \ admission queue %d, %d workers/node, GC on)\n"
    nodes keys queue_capacity workers_per_node;
  pr out "latency floor (~2 RTTs, cf. Didona et al.): %.3f ms\n" (floor_s *. 1e3);
  List.iter
    (fun sys ->
      pr out "-- %s --\n" (system_name sys);
      pr out "%-11s%10s%10s%10s%9s%12s%8s%10s%9s%10s\n" "offered/s" "offered" "accepted"
        "committed" "KTxs/s" "p99soj ms" "rej%" "versions" "dropped" "st.words";
      let rungs =
        List.map
          (fun rate ->
            let p = arriving sys (Driver.Poisson rate) in
            let o = run p in
            pr out "%-11.0f%10d%10d%10d%9.1f%12.3f%7.1f%%%10d%9d%10d\n" rate o.offered
              o.accepted o.committed (ktxs o) (o.p99_sojourn *. 1e3)
              (100. *. float_of_int o.rejected /. float_of_int (max 1 o.offered))
              o.store_versions o.gc_dropped_versions o.store_words;
            (p, o))
          (saturation_rates scale)
      in
      (* end-of-run resident storage at the hottest rung: versions are per
         SSS's exact accounting ([Mvstore.mem_words]); the other systems
         report their modelled store words *)
      (match List.rev rungs with
      | (_, last) :: _ ->
          if last.store_versions > 0 then
            pr out "   store: %d resident words, %.2f words/version\n" last.store_words
              (float_of_int last.store_words /. float_of_int last.store_versions)
          else pr out "   store: %d resident words\n" last.store_words
      | [] -> ());
      match slo_rate rungs with
      | Some rate ->
          pr out "   SLO p99 <= %.3f ms: sustained up to %.0f arrivals/s per node\n" slo_ms
            rate
      | None -> pr out "   SLO p99 <= %.3f ms: no rung met the bound\n" slo_ms)
    [ Sss; Twopc ];
  (* one ramp run per system: the arrival rate climbs through the knee
     within a single trajectory, so the aggregate mixes the uncontended
     and saturated regimes — a cheap smoke of the Ramp process itself *)
  let rates = saturation_rates scale in
  let lo = List.hd rates and hi = List.fold_left Float.max 0.0 rates in
  pr out "-- ramp %.0f -> %.0f arrivals/s per node --\n" lo hi;
  pr out "%-8s%10s%10s%10s%9s%12s%8s\n" "system" "offered" "accepted" "committed"
    "KTxs/s" "p99soj ms" "rej%";
  List.iter
    (fun sys ->
      let o = run (arriving sys (Driver.Ramp { from_rate = lo; to_rate = hi })) in
      pr out "%-8s%10d%10d%10d%9.1f%12.3f%7.1f%%\n" (system_name sys) o.offered
        o.accepted o.committed (ktxs o) (o.p99_sojourn *. 1e3)
        (100. *. float_of_int o.rejected /. float_of_int (max 1 o.offered)))
    [ Sss; Twopc ]

let saturation ctx scale = staged ctx (saturation_body scale)

(* Every figure by its command-line name, in the order [all] runs them. *)
let figures =
  [
    ("fig3", fig3);
    ("fig4a", fig4a);
    ("fig4b", fig4b);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("abort-rate", abort_rate);
    ("ablation", ablation);
    ("skewed", skewed);
    ("durability", durability);
    ("saturation", saturation);
  ]

let figure_names = List.map fst figures

let all ctx scale = List.concat_map (fun (_, fig) -> fig ctx scale) figures

let figure name = if String.equal name "all" then Some all else List.assoc_opt name figures

(* ---------- recovery trajectory fingerprint ----------

   Two crash-and-fault runs per system, each reduced to its simulator event
   count, committed count and an MD5 over the recorded history: a durable
   node crash and log-replay restart (the durability test's plan, seed 7),
   and the at-least-once transport under message drops and duplicates.
   test/golden/recovery_smoke.txt pins the text byte-for-byte. *)

let history_md5 h =
  let b = Buffer.create 65536 in
  Sss_consistency.History.iter h (fun ~seq ~at event ->
      Buffer.add_string b
        (Format.asprintf "%d %h %a\n" seq at Sss_consistency.History.pp_event event));
  Digest.to_hex (Digest.string (Buffer.contents b))

let recovery_smoke () =
  let module Chaos = Sss_chaos.Chaos in
  let seed = 7 in
  let any = { Chaos.src = None; dst = None; kinds = [] } in
  let rule ~drop ~dup =
    { Chaos.target = any; drop; dup; delay = 0.0; from_ = 0.0; until = Float.infinity }
  in
  let runs =
    [
      ("durable", true, Chaos.crash_restart ~seed ~node:2 ~at:0.015 ~restart_at:0.019);
      ( "lossy",
        false,
        { Chaos.seed; rules = [ rule ~drop:0.03 ~dup:0.0; rule ~drop:0.0 ~dup:0.02 ]; events = [] }
      );
    ]
  in
  let line system (label, durability, plan) =
    let r =
      Spec.run
        (Spec.make ~plan ~clients:2 ~duration:0.03 system
           { Sss_kv.Config.default with nodes = 4; replication_degree = Store.paper_degree system;
             total_keys = 24; seed; fault_tolerance = true; durability })
    in
    Printf.sprintf "%s %s des_events %d committed %d history_md5 %s\n"
      (String.lowercase_ascii (system_name system))
      label r.des_events r.result.committed (history_md5 r.store.history)
  in
  String.concat ""
    (List.concat_map (fun s -> List.map (line s) runs) [ Sss; Twopc; Walter; Rococo ])

(* ---------- golden fixtures ---------- *)

let golden name =
  if String.equal name "recovery" then Some (recovery_smoke ())
  else
    Option.map
      (fun fig ->
        let buf = Buffer.create 4096 in
        let runs = List.map snd (fig (ctx ~jobs:1 ~out:(Buffer.add_string buf) ()) Smoke) in
        let sum f = List.fold_left (fun acc o -> acc + f o) 0 runs in
        Printf.bprintf buf "des_events %d\nvirtual_seconds %.6f\ncommitted_txns %d\nruns %d\n"
          (sum (fun o -> o.des_events))
          (List.fold_left (fun acc o -> acc +. o.virtual_seconds) 0.0 runs)
          (sum (fun o -> o.committed))
          (List.length runs);
        Buffer.contents buf)
      (figure name)
