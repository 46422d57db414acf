(* The benchmark's workloads: each is a fixed list of cells built from the
   seed alone.  Every cell uses the default network (20 µs one-way latency,
   2 µs exponential jitter, 2 µs CPU per message, priority queues on) and
   the paper's YCSB transactions (updates read then write 2 keys;
   read-only transactions read 2 keys).

   A group is [copies] cells that differ only in their seed, each derived
   from the run's seed; virtual-time figures pool a group's samples.  One
   short window per seed swings widely (a crash's timing, a transient
   convoy); several pooled windows are steadier, and cheaper in wall time
   than one long window while online GC is off. *)

open Cell
module Driver = Sss_workload.Driver

let config ~seed ~nodes ~keys ~degree =
  {
    Sss_kv.Config.default with
    nodes;
    total_keys = keys;
    replication_degree = degree;
    seed;
    network = Sss_net.Network.default_config;
    priority_network = true;
    record_history = false;
    strict_order = false;
    gc = false;
  }

let load ~seed ~clients ~warmup ~duration ~dist =
  {
    Driver.clients_per_node = clients;
    warmup;
    duration;
    seed;
    dist;
    retry_aborts = false;
    open_loop = None;
  }

(* [copies] cells of one group; [make seed] builds one from its seed. *)
let group ~seed ~copies ~name ?(primary = true) ?(battery = false) ?crash system make =
  List.init copies (fun i ->
      let seed = Hashtbl.hash (seed, name, i) in
      let config, profile, load = make seed in
      {
        label = Printf.sprintf "%s#%d" name i;
        group = name;
        system;
        config;
        profile;
        load;
        crash;
        battery;
        primary;
      })

(* Figs 3 and 6 as users regenerate them: closed loop, 8 clients per node,
   10 nodes, 2,000 uniform keys, 50% read-only, history and online GC off,
   SSS in paper mode; ROCOCO at degree 1 (its Fig 6/8 setting), the rest
   at degree 2.  Protocol handlers, vector clocks, the node log, snapshot
   queues, the network and the engine do the work; WAL, admission, GC and
   the checker stay idle. *)
let paper_closed ~seed =
  let profile = Driver.paper_profile ~read_only_ratio:0.5 in
  let make degree seed =
    ( config ~seed ~nodes:10 ~keys:2000 ~degree,
      profile,
      load ~seed ~clients:8 ~warmup:0.003 ~duration:0.01 ~dist:Driver.Uniform )
  in
  (* SSS carries the gated metrics, so it gets the most windows *)
  List.concat_map
    (fun (system, degree, copies) -> group ~seed ~copies ~name:(system_name system) system (make degree))
    [ (Sss, 2, 8); (Walter, 2, 4); (Twopc, 2, 4); (Rococo, 1, 4) ]

let open_rates = [ 10_000.; 20_000.; 30_000. ]

(* The rung the open loop's latency and throughput are read at: below the
   knee, where a latency change is not drowned by queueing swings (at the
   20k rung SSS's p50 moves by a quarter from seed to seed). *)
let reference_rate = 10_000.

(* Write-heavy open loop across SSS's knee: Poisson arrivals per node at
   three fixed rates, 5 nodes, 1,000 keys, 20% read-only, WAL group commit
   and checkpoints, online GC, a queue of 64 and 10 workers per node.  The
   WAL, admission queues, the GC sweep and store installs do real work. *)
let open_durable ~seed =
  let profile = Driver.paper_profile ~read_only_ratio:0.2 in
  let make rate seed =
    ( { (config ~seed ~nodes:5 ~keys:1000 ~degree:2) with durability = true; gc = true },
      profile,
      {
        (load ~seed ~clients:0 ~warmup:0.005 ~duration:0.02 ~dist:Driver.Uniform) with
        open_loop =
          Some { Driver.arrival = Driver.Poisson rate; queue_capacity = 64; workers_per_node = 10 };
      } )
  in
  List.concat_map
    (fun system ->
      List.concat_map
        (fun rate ->
          (* the gated figures are SSS's at the reference rung *)
          let copies =
            if rate <> reference_rate then 2 else if system = Sss then 48 else 6
          in
          group ~seed ~copies
            ~name:(Printf.sprintf "%s@%.0fk" (system_name system) (rate /. 1e3))
            ~primary:(rate = reference_rate) system (make rate))
        open_rates)
    [ Sss; Twopc ]

(* The only workload where the history, the checker battery, transport
   retries and a crash/restart do real work: SSS with history, online GC,
   durability and the fault-tolerant transport on, 8 nodes, 500 keys at
   zipf 0.5 (contention is deliberate), 8 clients per node.  Node 2 fails
   a third into the window and returns 20 ms later.

   Two known defects shape it; [known_bad] keeps both.  Hardened SSS
   (strict_order) sometimes stops committing: at seed 0 every client of
   one copy waits for the 30 s ack timeout.  A durable crash (volatile
   state discarded, WAL replayed) leaves orphaned snapshot-queue entries
   on the restarted node on a large share of seeds, so quiescence fails.
   So this workload runs SSS in paper mode under a NIC crash; switch both
   once those are fixed. *)
let checked_faults_cell ~strict seed =
  ( {
      (config ~seed ~nodes:8 ~keys:500 ~degree:2) with
      strict_order = strict;
      record_history = true;
      gc = true;
      durability = true;
      fault_tolerance = true;
    },
    Driver.paper_profile ~read_only_ratio:0.5,
    load ~seed ~clients:8 ~warmup:0.005 ~duration:0.05 ~dist:(Driver.Zipfian 0.5) )

let crash ~durable =
  let at = 0.005 +. (0.05 /. 3.0) in
  { at; restart_at = at +. 0.02; node = 2; durable }

let checked_faults ~seed =
  group ~seed ~copies:12 ~name:"sss" ~battery:true ~crash:(crash ~durable:false) Sss
    (checked_faults_cell ~strict:false)

let plan name ~seed =
  match name with
  | "paper-closed" -> Some (paper_closed ~seed)
  | "open-durable" -> Some (open_durable ~seed)
  | "checked-faults" -> Some (checked_faults ~seed)
  | _ -> None

(* Configurations known to fail, each at a seed where it does, which the
   benchmark must report rather than crash on or hide: ROCOCO at
   replication degree 2 raises [Rpc.Stalled]; hardened SSS at zipf 0.8
   with durability on stops committing and idles until the ack timeout;
   the checked-faults cell, hardened and with a durable crash, leaves
   snapshot-queue residue. *)
let known_bad () =
  let profile = Driver.paper_profile ~read_only_ratio:0.5 in
  let single ~seed ?battery ?crash ~name system make =
    group ~seed ~copies:1 ~name ?battery ?crash system (fun _ -> make seed)
  in
  List.concat
    [
      single ~seed:1 ~name:"rococo-degree2" Rococo (fun seed ->
          ( config ~seed ~nodes:5 ~keys:1000 ~degree:2,
            profile,
            load ~seed ~clients:8 ~warmup:0.008 ~duration:0.025 ~dist:Driver.Uniform ));
      single ~seed:2 ~name:"sss-strict-zipf0.8" Sss (fun seed ->
          ( { (config ~seed ~nodes:8 ~keys:500 ~degree:2) with strict_order = true; durability = true },
            profile,
            load ~seed ~clients:8 ~warmup:0.005 ~duration:0.1 ~dist:(Driver.Zipfian 0.8) ));
      single ~seed:8 ~name:"sss-durable-crash" ~battery:true ~crash:(crash ~durable:true) Sss
        (checked_faults_cell ~strict:true);
    ]
