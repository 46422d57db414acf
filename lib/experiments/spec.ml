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
      Printf.sprintf "ro=%s ro_ops=%d locality=%s" (fl p.read_only_ratio) p.ro_ops
        (fl p.locality);
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

exception Invalid of string

(* An if-chain, not a list of rules: a valid spec without a plan allocates
   nothing, and only the broken rule builds its message. *)
let check { system; config = c; profile = p; load = l; plan } =
  let fail fmt = Printf.ksprintf Result.error fmt and ratio x = 0.0 <= x && x <= 1.0 in
  let degree = c.replication_degree in
  if c.nodes < 1 then fail "nodes=%d: need at least 1" c.nodes
  else if degree < 1 || degree > c.nodes then
    fail "degree=%d: need 1 <= degree <= nodes (%d)" degree c.nodes
  else if system = Store.Rococo && degree > 1 then
    fail "degree=%d: rococo runs only at degree 1 (above it, it stalls)" degree
  else if c.total_keys < 1 then fail "keys=%d: need at least 1" c.total_keys
  else if not (ratio p.read_only_ratio) then fail "ro=%g: need a ratio in [0, 1]" p.read_only_ratio
  else if not (ratio p.locality) then fail "locality=%g: need a probability in [0, 1]" p.locality
  else if p.ro_ops < 1 then fail "ro_ops=%d: need at least 1 read" p.ro_ops
  else if not (l.duration > 0.0) then fail "duration=%g: need a positive window" l.duration
  else
    match (l.open_loop, plan) with
    | None, _ when l.clients_per_node < 1 -> fail "clients=%d: need at least 1" l.clients_per_node
    | Some o, _ when o.workers_per_node < 1 -> fail "workers=%d: need at least 1" o.workers_per_node
    | Some o, _ when o.queue_capacity < 0 -> fail "queue=%d: need a capacity >= 0" o.queue_capacity
    | Some { arrival = Poisson r; _ }, _ when not (r > 0.0) ->
        fail "arrival=poisson:%g: need a positive rate" r
    | Some { arrival = Ramp { from_rate = a; to_rate = b }; _ }, _ when not (a > 0.0 && b > 0.0) ->
        fail "arrival=ramp:%g-%g: need positive rates" a b
    | _, None -> Ok ()
    | _, Some plan -> Sss_chaos.Chaos.validate ~nodes:c.nodes plan

let run ?(setup = ignore) spec =
  (match check spec with Ok () -> () | Error msg -> raise (Invalid msg));
  let store = Store.create spec.system (Sss_sim.Sim.create ()) spec.config in
  let chaos = Option.map store.chaos spec.plan in
  setup store;
  Store.drive ?chaos store ~profile:spec.profile ~load:spec.load
