type t = {
  nodes : int;
  replication_degree : int;
  total_keys : int;
  network : Sss_net.Network.config;
  record_history : bool;
  seed : int;
  strict_order : bool;
  gc : bool;
  priority_network : bool;
  compress_metadata : bool;
  fault_tolerance : bool;
  observe : bool;
  trace_capacity : int;
  durability : bool;
  checkpoint_interval : float;
}

let default =
  {
    nodes = 4;
    replication_degree = 2;
    total_keys = 64;
    network = Sss_net.Network.default_config;
    record_history = true;
    seed = 1;
    strict_order = true;
    gc = true;
    priority_network = true;
    compress_metadata = true;
    fault_tolerance = false;
    observe = false;
    trace_capacity = 0;
    durability = false;
    checkpoint_interval = 0.05;
  }

let vote_timeout = 1e-3
let lock_timeout = 1e-3
let ack_timeout = 30.0
let starvation_threshold = 5e-3
let backoff_initial = 0.5e-3
let backoff_max = 8e-3
let retry_initial = 0.5e-3
let retry_max = 8e-3
let retry_limit = 64
let fsync_latency = 5e-5
let disk_bandwidth = 2e9
