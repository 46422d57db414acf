open Sss_sim
open Sss_data
module Driver = Sss_workload.Driver
module Stats = Sss_workload.Stats

type system = Store.system = Sss | Walter | Twopc | Rococo

let system_name = Store.system_name

type params = {
  system : system;
  nodes : int;
  degree : int;
  keys : int;
  ro_ratio : float;
  ro_ops : int;
  locality : float;
  clients : int;
  warmup : float;
  duration : float;
  seed : int;
  strict : bool;
      (* SSS only: hardened external-commit ordering (DESIGN.md) instead of
         the paper's literal per-key release *)
  priority_network : bool;  (* §V's prioritized message queues *)
  compress : bool;  (* SSS only: §III-A metadata compression (byte telemetry) *)
  zipf : float option;  (* skewed key popularity instead of uniform *)
  observe : bool;  (* attach the sss_obs sink; must not change trajectories *)
  durability : bool;  (* write-ahead logging on every node (lib/storage) *)
  checkpoint_interval : float option;  (* override Config.checkpoint_interval *)
  crash : (float * float) option;
      (* fail-stop-recover one node at (crash, restart) virtual seconds; the
         run wires Chaos crash/restart hooks so durable protocols replay
         their log *)
  arrival : Sss_workload.Driver.arrival option;
      (* open-loop arrival process per node; [None] = the paper's closed
         loop (byte-identical to builds without the open-loop engine) *)
  queue_capacity : int;  (* open loop: max waiting arrivals per node *)
  workers : int;  (* open loop: service fibers per node *)
}

let default_params =
  {
    system = Sss;
    nodes = 5;
    degree = 2;
    keys = 5000;
    ro_ratio = 0.5;
    ro_ops = 2;
    locality = 0.0;
    clients = 10;
    warmup = 0.01;
    duration = 0.04;
    seed = 42;
    strict = false;
    priority_network = true;
    compress = true;
    zipf = None;
    observe = false;
    durability = false;
    checkpoint_interval = None;
    crash = None;
    arrival = None;
    queue_capacity = 64;
    workers = 10;
  }

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
  nlog_entries : int;
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

let config_of (p : params) : Sss_kv.Config.t =
  {
    Sss_kv.Config.default with
    nodes = p.nodes;
    replication_degree = p.degree;
    total_keys = p.keys;
    record_history = false;
    seed = p.seed;
    strict_order = p.strict;
    priority_network = p.priority_network;
    compress_metadata = p.compress;
    observe = p.observe;
    durability = p.durability;
    checkpoint_interval =
      (match p.checkpoint_interval with
      | Some i -> i
      | None -> Sss_kv.Config.default.checkpoint_interval);
    (* a crash needs the fault-tolerant transport so survivors retry around
       the dead NIC; crash-free runs keep the default so existing figures
       are untouched *)
    fault_tolerance = Sss_kv.Config.default.fault_tolerance || p.crash <> None;
  }

let run (p : params) =
  let (Store.Store s) = Store.create p.system (Sim.create ()) (config_of p) in
  Option.iter (fun cl -> Sss_kv.Kv.set_collect_latencies cl true) s.kv;
  let r =
    Store.drive s ~durable:true
      ?plan:
        (Option.map
           (fun (at, restart_at) ->
             Sss_chaos.Chaos.crash_restart ~seed:p.seed ~node:(min 2 (p.nodes - 1)) ~at
               ~restart_at)
           p.crash)
      ~profile:
        { Driver.read_only_ratio = p.ro_ratio; update_ops = 2; ro_ops = p.ro_ops;
          locality = p.locality }
      ~load:
        {
          Driver.default_load with
          clients_per_node = p.clients;
          warmup = p.warmup;
          duration = p.duration;
          seed = p.seed;
          dist = (match p.zipf with None -> Driver.Uniform | Some theta -> Driver.Zipfian theta);
          open_loop =
            Option.map
              (fun arrival ->
                { Driver.arrival; queue_capacity = p.queue_capacity; workers_per_node = p.workers })
              p.arrival;
        }
  in
  let sss_internal, sss_wait, timeouts =
    match r.kv with
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
  let sss f zero = match r.kv with Some cl -> f cl | None -> zero in
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
    metrics = Option.map Sss_obs.Obs.metrics_json r.obs;
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
    nlog_entries = sss Sss_kv.Kv.nlog_entries 0;
    gc_dropped_versions = gc_versions;
    gc_dropped_entries = gc_entries;
  }

let run_in ctx p = run (if ctx.observe_all then { p with observe = true } else p)

let run_seeds ctx p ~seeds =
  Sss_par.Pool.map_list ctx.pool (fun seed -> run_in ctx { p with seed }) seeds

(* ---------- simulator meters ----------

   Per-figure simulator totals, for the bench harness's --json report (DES
   events/sec and virtual-time throughput per target).  Summed from the
   outcomes in submission order, so the totals — float additions included —
   are identical at every jobs count. *)

type meters = {
  des_events : int;  (* simulator events executed *)
  virtual_seconds : float;  (* virtual time simulated *)
  committed_txns : int;
  runs : int;
  (* open-loop admission totals (zeros for closed-loop figures) *)
  offered : int;
  accepted : int;
  rejected : int;
  (* GC totals: end-of-run retained versions (summed over runs) and
     versions dropped by the online policy *)
  store_versions : int;
  gc_dropped : int;
  store_words : int;
  (* per-protocol highest offered rate meeting the saturation figure's p99
     SLO, [None] when no rung met it; empty for every other figure *)
  slo_rates : (string * float option) list;
}

let meters_zero =
  {
    des_events = 0;
    virtual_seconds = 0.0;
    committed_txns = 0;
    runs = 0;
    offered = 0;
    accepted = 0;
    rejected = 0;
    store_versions = 0;
    gc_dropped = 0;
    store_words = 0;
    slo_rates = [];
  }

let meters_add m (o : outcome) =
  {
    des_events = m.des_events + o.des_events;
    virtual_seconds = m.virtual_seconds +. o.virtual_seconds;
    committed_txns = m.committed_txns + o.committed;
    runs = m.runs + 1;
    offered = m.offered + o.offered;
    accepted = m.accepted + o.accepted;
    rejected = m.rejected + o.rejected;
    store_versions = m.store_versions + o.store_versions;
    gc_dropped = m.gc_dropped + o.gc_dropped_versions;
    store_words = m.store_words + o.store_words;
    slo_rates = m.slo_rates;
  }

let meters_sum a b =
  {
    des_events = a.des_events + b.des_events;
    virtual_seconds = a.virtual_seconds +. b.virtual_seconds;
    committed_txns = a.committed_txns + b.committed_txns;
    runs = a.runs + b.runs;
    offered = a.offered + b.offered;
    accepted = a.accepted + b.accepted;
    rejected = a.rejected + b.rejected;
    store_versions = a.store_versions + b.store_versions;
    gc_dropped = a.gc_dropped + b.gc_dropped;
    store_words = a.store_words + b.store_words;
    slo_rates = a.slo_rates @ b.slo_rates;
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
   strictly in submission order, the figure's text and meters are
   byte-identical at any [jobs] — the smoke.sh -j1-vs-jmax gate pins it. *)

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
    nlog_entries = 0;
    gc_dropped_versions = 0;
    gc_dropped_entries = 0;
  }

let staged ctx body =
  let specs = ref [] in
  body ~run:(fun p -> specs := p :: !specs; placeholder_outcome) ~out:ignore;
  let outs = Sss_par.Pool.map ctx.pool (run_in ctx) (Array.of_list (List.rev !specs)) in
  let idx = ref 0 in
  body
    ~run:(fun _ ->
      let o = outs.(!idx) in
      incr idx;
      o)
    ~out:ctx.out;
  Array.fold_left meters_add meters_zero outs

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

let base_params = function
  | Full -> default_params
  | Quick -> { default_params with clients = 8; duration = 0.025; warmup = 0.008 }
  | Smoke -> { default_params with clients = 4; duration = 0.01; warmup = 0.004 }

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
let system_grid scale ~run ~out p =
  let cols =
    List.concat_map
      (fun sys ->
        List.map
          (fun keys -> (Printf.sprintf "%s-%dk" (system_name sys) (keys / 1000), (sys, keys)))
          (keyspaces scale))
      [ Twopc; Walter; Sss ]
  in
  table out ~corner:"nodes" ~cols ~label:string_of_int ~rows:(node_counts scale)
    (fun nodes (system, keys) -> ktxs (run { p with system; nodes; keys }))

(* ---------- figures ---------- *)

let fig3_body scale ~run ~out =
  header out "Figure 3: throughput vs nodes, replication degree 2 (KTxs/sec)";
  List.iter
    (fun ro ->
      pr out "-- %d%% read-only --\n" (int_of_float (ro *. 100.));
      system_grid scale ~run ~out { (base_params scale) with ro_ratio = ro; degree = 2 })
    [ 0.2; 0.5; 0.8 ]

let fig3 ctx scale = staged ctx (fig3_body scale)

let fig4a_body scale ~run ~out =
  header out "Figure 4(a): maximum attainable throughput, 50% read-only, 5k keys (KTxs/sec)";
  let base = base_params scale in
  let keys = List.hd (keyspaces scale) in
  let client_options =
    match scale with Full -> [ 5; 10; 16 ] | Quick -> [ 5; 10 ] | Smoke -> [ 4 ]
  in
  table out ~corner:"nodes" ~cols:(by_system [ Sss; Twopc ]) ~label:string_of_int
    ~rows:(node_counts scale) (fun nodes sys ->
      List.fold_left
        (fun acc clients ->
          let o = run { base with system = sys; nodes; keys; ro_ratio = 0.5; clients } in
          Stdlib.max acc (ktxs o))
        0.0 client_options)

let fig4a ctx scale = staged ctx (fig4a_body scale)

let latency_nodes = function Full -> 20 | Quick -> 10 | Smoke -> 5

let fig4b_body scale ~run ~out =
  header out
    "Figure 4(b): transaction latency begin->external commit (ms), 50% read-only, 5k keys";
  let base = base_params scale in
  let keys = List.hd (keyspaces scale) in
  let nodes = latency_nodes scale in
  (* mean over ALL committed transactions: the paper's measurement includes
     read-only transactions, whose cost is where SSS and the 2PC baseline
     differ most (2PC validates and locks them). *)
  pr out "(nodes = %d)\n%-10s%14s%14s%16s%16s\n" nodes "clients" "SSS" "2PC"
    "SSS(update)" "2PC(update)";
  List.iter
    (fun clients ->
      let sss = run { base with system = Sss; nodes; keys; ro_ratio = 0.5; clients } in
      let tp = run { base with system = Twopc; nodes; keys; ro_ratio = 0.5; clients } in
      pr out "%-10d%14.3f%14.3f%16.3f%16.3f\n" clients (sss.mean_latency *. 1e3)
        (tp.mean_latency *. 1e3)
        (sss.mean_update_latency *. 1e3)
        (tp.mean_update_latency *. 1e3))
    [ 1; 3; 5; 10 ]

let fig4b ctx scale = staged ctx (fig4b_body scale)

let fig5_body scale ~run ~out =
  header out
    "Figure 5: SSS update latency breakdown (ms): execution+internal vs snapshot-queue wait";
  let base = base_params scale in
  let keys = List.hd (keyspaces scale) in
  let nodes = latency_nodes scale in
  pr out "(nodes = %d)\n%-10s%14s%14s%14s%10s\n" nodes "clients" "total" "internal"
    "sq-wait" "wait%";
  List.iter
    (fun clients ->
      let o = run { base with system = Sss; nodes; keys; ro_ratio = 0.5; clients } in
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
  let base = base_params scale in
  let keys = List.hd (keyspaces scale) in
  List.iter
    (fun ro ->
      pr out "-- %d%% read-only --\n" (int_of_float (ro *. 100.));
      table out ~corner:"nodes" ~cols:(by_system [ Sss; Twopc; Rococo ]) ~label:string_of_int
        ~rows:(node_counts scale) (fun nodes system ->
          ktxs (run { base with system; nodes; keys; ro_ratio = ro; degree = 1 })))
    [ 0.2; 0.8 ]

let fig6 ctx scale = staged ctx (fig6_body scale)

let fig7_body scale ~run ~out =
  header out "Figure 7: throughput, 80% read-only, 50% locality, degree 2 (KTxs/sec)";
  system_grid scale ~run ~out
    { (base_params scale) with ro_ratio = 0.8; locality = 0.5; degree = 2 }

let fig7 ctx scale = staged ctx (fig7_body scale)

let fig8_body scale ~run ~out =
  header out "Figure 8: speedup of SSS as read-only size grows (15 nodes, 80% read-only)";
  let base = base_params scale in
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
          let o sys =
            run
              { base with system = sys; nodes; keys; ro_ratio = 0.8; ro_ops; degree = 1 }
          in
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
  let base = base_params scale in
  table out ~fmt:"%13.1f%%" ~corner:"nodes"
    ~cols:(List.map (fun keys -> (Printf.sprintf "%dk keys" (keys / 1000), keys)) (keyspaces scale))
    ~label:string_of_int ~rows:(node_counts scale) (fun nodes keys ->
      (run { base with system = Sss; nodes; keys; ro_ratio = 0.2; degree = 2 }).abort_rate
      *. 100.0)

let abort_rate ctx scale = staged ctx (abort_rate_body scale)

let ablation_body scale ~run ~out =
  header out
    "Ablation: SSS paper-literal release vs hardened external-commit ordering (KTxs/sec)";
  let base = base_params scale in
  let keys = List.hd (keyspaces scale) in
  let nodes = latency_nodes scale in
  pr out "(nodes = %d, 80%% read-only)\n%-8s%14s%14s%10s\n" nodes "ro-size" "paper"
    "hardened" "cost";
  List.iter
    (fun ro_ops ->
      let o strict =
        run { base with system = Sss; nodes; keys; ro_ratio = 0.8; ro_ops; degree = 1; strict }
      in
      let paper = ktxs (o false) and hard = ktxs (o true) in
      pr out "%-8d%14.1f%14.1f%9.0f%%\n" ro_ops paper hard
        (100. *. (paper -. hard) /. paper))
    [ 2; 8; 16 ];
  header out "Ablation: prioritized network queues (the §V optimization) (KTxs/sec)";
  let nodes2 = latency_nodes scale in
  pr out "(nodes = %d, 50%% read-only, saturated clients)\n%-12s%14s%14s\n" nodes2
    "" "prioritized" "fifo";
  let o pn =
    run
      { base with system = Sss; nodes = nodes2; keys; ro_ratio = 0.5;
        clients = base.clients * 2; priority_network = pn }
  in
  let yes = o true and no = o false in
  pr out "%-12s%14.1f%14.1f\n" "throughput" (ktxs yes) (ktxs no);
  pr out "%-12s%13.3fms%13.3fms\n" "p99 latency" (yes.p99_latency *. 1e3)
    (no.p99_latency *. 1e3);
  header out "Ablation: vector-clock metadata compression (bytes on the wire)";
  let o compress =
    run { base with system = Sss; nodes = nodes2; keys; ro_ratio = 0.5; compress }
  in
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
  let base = base_params scale in
  let keys = List.hd (keyspaces scale) in
  let nodes = latency_nodes scale in
  pr out "(nodes = %d, theta on X)\n" nodes;
  table out ~width:8 ~corner:"theta" ~cols:(by_system [ Sss; Walter; Twopc; Rococo ])
    ~label:(Printf.sprintf "%.2f") ~rows:[ 0.0; 0.6; 0.9; 0.99 ] (fun theta sys ->
      ktxs
        (run
           { base with system = sys; nodes; keys; ro_ratio = 0.5;
             zipf = (if theta = 0.0 then None else Some theta);
             degree = Store.paper_degree sys }))

let skewed ctx scale = staged ctx (skewed_body scale)

let durability_body scale ~run ~out =
  header out "Durability: WAL group-commit overhead, and recovery vs checkpoint interval";
  let base = base_params scale in
  let keys = List.hd (keyspaces scale) in
  (* (a) steady-state cost of the log: the same workload with durability
     off and on; durable commits pay the fsync before acknowledging *)
  pr out "-- overhead: durability off vs on (4 nodes, 50%% read-only) --\n";
  pr out "%-8s%12s%12s%14s%14s%8s\n" "system" "off KTxs" "on KTxs" "off upd ms" "on upd ms"
    "cost";
  List.iter
    (fun sys ->
      let o durability =
        run
          { base with system = sys; nodes = 4; keys; ro_ratio = 0.5;
            degree = Store.paper_degree sys; durability }
      in
      let off = o false and on = o true in
      pr out "%-8s%12.1f%12.1f%14.3f%14.3f%7.0f%%\n" (system_name sys) (ktxs off) (ktxs on)
        (off.mean_update_latency *. 1e3)
        (on.mean_update_latency *. 1e3)
        (100. *. (ktxs off -. ktxs on) /. Float.max 1e-9 (ktxs off)))
    [ Sss; Walter; Twopc; Rococo ];
  (* (b) the checkpoint-cadence trade: a crash at 15 ms (restart 19 ms)
     replays the log tail past the last completed checkpoint, so shorter
     intervals buy faster recovery with more checkpoint write traffic *)
  pr out "-- SSS recovery vs checkpoint interval (crash one node at 15 ms, restart 19 ms) --\n";
  pr out "%-12s%13s%12s%14s%12s\n" "interval ms" "checkpoints" "replayed" "recovery ms" "KTxs";
  List.iter
    (fun interval ->
      let o =
        run
          { base with system = Sss; nodes = 4; keys; ro_ratio = 0.5; degree = 2;
            warmup = 0.005; duration = 0.03; durability = true;
            checkpoint_interval = Some interval; crash = Some (0.015, 0.019) }
      in
      let w = o.wal in
      pr out "%-12.1f%13d%12d%14.3f%12.1f\n" (interval *. 1e3)
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

let saturation_body scale ~slo_ms ~slo ~run ~out =
  (* the body is interpreted twice (record + replay); only the replay
     pass's SLO verdicts survive *)
  slo := [];
  header out "Saturation: open-loop throughput and p99 sojourn vs offered load";
  let base = base_params scale in
  let keys = List.hd (keyspaces scale) in
  let nodes = match scale with Full -> 10 | Quick -> 5 | Smoke -> 3 in
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
    nodes keys base.queue_capacity base.workers;
  pr out "latency floor (~2 RTTs, cf. Didona et al.): %.3f ms\n" (floor_s *. 1e3);
  List.iter
    (fun sys ->
      pr out "-- %s --\n" (system_name sys);
      pr out "%-11s%10s%10s%10s%9s%12s%8s%10s%9s%10s\n" "offered/s" "offered" "accepted"
        "committed" "KTxs/s" "p99soj ms" "rej%" "versions" "dropped" "st.words";
      let rungs =
        List.map
          (fun rate ->
            let (o : outcome) =
              run
                { base with system = sys; nodes; keys; ro_ratio = 0.5;
                  arrival = Some (Sss_workload.Driver.Poisson rate) }
            in
            pr out "%-11.0f%10d%10d%10d%9.1f%12.3f%7.1f%%%10d%9d%10d\n" rate o.offered
              o.accepted o.committed (ktxs o) (o.p99_sojourn *. 1e3)
              (100. *. float_of_int o.rejected /. float_of_int (max 1 o.offered))
              o.store_versions o.gc_dropped_versions o.store_words;
            (rate, o))
          (saturation_rates scale)
      in
      (* end-of-run resident storage at the hottest rung: versions are per
         SSS's exact accounting ([Mvstore.mem_words]); the other systems
         report their modelled store words *)
      (match List.rev rungs with
      | (_, (last : outcome)) :: _ ->
          if last.store_versions > 0 then
            pr out "   store: %d resident words, %.2f words/version\n" last.store_words
              (float_of_int last.store_words /. float_of_int last.store_versions)
          else pr out "   store: %d resident words\n" last.store_words
      | [] -> ());
      (* SLO verdict (ROADMAP item 1): the highest offered rate whose p99
         sojourn still meets the bound *)
      let met =
        List.fold_left
          (fun acc (rate, (o : outcome)) ->
            if o.p99_sojourn <= slo_ms /. 1e3 then Some rate else acc)
          None rungs
      in
      (match met with
      | Some rate ->
          pr out "   SLO p99 <= %.3f ms: sustained up to %.0f arrivals/s per node\n" slo_ms
            rate
      | None -> pr out "   SLO p99 <= %.3f ms: no rung met the bound\n" slo_ms);
      slo := (system_name sys, met) :: !slo)
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
      let (o : outcome) =
        run
          { base with system = sys; nodes; keys; ro_ratio = 0.5;
            arrival = Some (Sss_workload.Driver.Ramp { from_rate = lo; to_rate = hi }) }
      in
      pr out "%-8s%10d%10d%10d%9.1f%12.3f%7.1f%%\n" (system_name sys) o.offered
        o.accepted o.committed (ktxs o) (o.p99_sojourn *. 1e3)
        (100. *. float_of_int o.rejected /. float_of_int (max 1 o.offered)))
    [ Sss; Twopc ]

let saturation ?(slo_ms = 5.0) ctx scale =
  let slo = ref [] in
  let m = staged ctx (saturation_body scale ~slo_ms ~slo) in
  { m with slo_rates = List.rev !slo }

let observed_metrics scale =
  let base = base_params scale in
  let keys = List.hd (keyspaces scale) in
  let nodes = latency_nodes scale in
  let o = run { base with system = Sss; nodes; keys; ro_ratio = 0.5; observe = true } in
  match o.metrics with Some m -> m | None -> "{}"

(* Every figure by its command-line name, in the order [all] runs them. *)
let figures ?slo_ms () =
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
    ("saturation", fun ctx scale -> saturation ?slo_ms ctx scale);
  ]

let figure_names = List.map fst (figures ())

let all ctx scale =
  List.fold_left (fun m (_, fig) -> meters_sum m (fig ctx scale)) meters_zero (figures ())

let figure ?slo_ms name =
  if String.equal name "all" then Some all else List.assoc_opt name (figures ?slo_ms ())

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
  let line system (label, durable, plan) =
    let (Store.Store s) =
      Store.create system (Sim.create ())
        {
          Sss_kv.Config.default with
          nodes = 4;
          replication_degree = Store.paper_degree system;
          total_keys = 24;
          seed;
          fault_tolerance = true;
          durability = durable;
        }
    in
    let r =
      Store.drive ~plan ~durable s
        ~profile:(Driver.paper_profile ~read_only_ratio:0.5)
        ~load:
          { Driver.default_load with clients_per_node = 2; warmup = 0.005; duration = 0.03;
            seed }
    in
    Printf.sprintf "%s %s des_events %d committed %d history_md5 %s\n"
      (String.lowercase_ascii (system_name system))
      label r.des_events r.result.committed (history_md5 r.history)
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
        let m = fig (ctx ~jobs:1 ~out:(Buffer.add_string buf) ()) Smoke in
        Printf.bprintf buf "des_events %d\nvirtual_seconds %.6f\ncommitted_txns %d\nruns %d\n"
          m.des_events m.virtual_seconds m.committed_txns m.runs;
        Buffer.contents buf)
      (figure name)
