type t = {
  nodes : int;
  replication_degree : int;
  total_keys : int;
  network : Sss_net.Network.config;
  vote_timeout : float;
  lock_timeout : float;
  ack_timeout : float;
  starvation_threshold : float;
  backoff_initial : float;
  backoff_max : float;
  record_history : bool;
  seed : int;
  strict_order : bool;
  gc : bool;
  priority_network : bool;
  compress_metadata : bool;
  fault_tolerance : bool;
  retry_initial : float;
  retry_max : float;
  retry_limit : int;
  observe : bool;
  trace_capacity : int;
  durability : bool;
  fsync_latency : float;
  disk_bandwidth : float;
  checkpoint_interval : float;
}

let default =
  {
    nodes = 4;
    replication_degree = 2;
    total_keys = 64;
    network = Sss_net.Network.default_config;
    vote_timeout = 1e-3;
    lock_timeout = 1e-3;
    ack_timeout = 30.0;
    starvation_threshold = 5e-3;
    backoff_initial = 0.5e-3;
    backoff_max = 8e-3;
    record_history = true;
    seed = 1;
    strict_order = true;
    gc = true;
    priority_network = true;
    compress_metadata = true;
    fault_tolerance = false;
    retry_initial = 0.5e-3;
    retry_max = 8e-3;
    retry_limit = 64;
    observe = false;
    trace_capacity = 65536;
    durability = false;
    fsync_latency = 5e-5;
    disk_bandwidth = 2e9;
    checkpoint_interval = 0.05;
  }
