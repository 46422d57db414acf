module Driver = Sss_workload.Driver

type t = {
  system : Store.system;
  config : Sss_kv.Config.t;
  profile : Driver.profile;
  load : Driver.load;
  plan : Sss_chaos.Chaos.plan option;
}

let make ?plan ?(ro = 0.5) ?(clients = 10) ?(warmup = 0.005) ~duration system
    (config : Sss_kv.Config.t) =
  {
    system;
    config;
    profile = Driver.paper_profile ~read_only_ratio:ro;
    load =
      { Driver.default_load with clients_per_node = clients; warmup; duration; seed = config.seed };
    plan;
  }

let fl = Sss_chaos.Chaos.float_str

let to_string { system; config = c; profile = p; load = l; plan } =
  let n = c.network in
  String.concat " "
    [
      String.lowercase_ascii (Store.system_name system);
      Printf.sprintf "nodes=%d degree=%d keys=%d net=%s/%s/%s/%s history=%b seed=%d" c.nodes
        c.replication_degree c.total_keys (fl n.latency_base) (fl n.latency_jitter)
        (fl n.self_latency) (fl n.cpu_per_message) c.record_history c.seed;
      Printf.sprintf "strict=%b gc=%b priority=%b compress=%b ft=%b observe=%b durable=%b ckpt=%s"
        c.strict_order c.gc c.priority_network c.compress_metadata c.fault_tolerance c.observe
        c.durability (fl c.checkpoint_interval);
      Printf.sprintf "ro=%s update_ops=%d ro_ops=%d locality=%s" (fl p.read_only_ratio)
        p.update_ops p.ro_ops (fl p.locality);
      Printf.sprintf "clients=%d warmup=%s duration=%s load_seed=%d dist=%s retry=%b"
        l.clients_per_node (fl l.warmup) (fl l.duration) l.seed
        (match l.dist with Uniform -> "uniform" | Zipfian theta -> "zipf:" ^ fl theta)
        l.retry_aborts;
      (match l.open_loop with
      | None -> "arrival=closed"
      | Some o ->
          Printf.sprintf "arrival=%s queue=%d workers=%d"
            (match o.arrival with
            | Poisson rate -> "poisson:" ^ fl rate
            | Ramp { from_rate; to_rate } -> "ramp:" ^ fl from_rate ^ "-" ^ fl to_rate)
            o.queue_capacity o.workers_per_node);
      "plan=" ^ Option.fold ~none:"none" ~some:Sss_chaos.Chaos.to_string plan;
    ]

let run ?(setup = ignore) spec =
  let (Store.Store s as store) = Store.create spec.system (Sss_sim.Sim.create ()) spec.config in
  let chaos = Option.map s.chaos spec.plan in
  setup store;
  Store.drive ?chaos s ~profile:spec.profile ~load:spec.load
