open Sss_sim
open Sss_data

type 'h ops = {
  begin_txn : node:Ids.node -> read_only:bool -> 'h;
  read : 'h -> Ids.key -> string;
  write : 'h -> Ids.key -> string -> unit;
  commit : 'h -> bool;
}

type key_dist = Uniform | Zipfian of float

type profile = {
  read_only_ratio : float;
  ro_ops : int;
  locality : float;
}

let paper_profile ~read_only_ratio = { read_only_ratio; ro_ops = 2; locality = 0.0 }

(* Keys an update transaction reads then overwrites: the paper's two
   read-modify-writes (§V). *)
let update_ops = 2

type arrival = Poisson of float | Ramp of { from_rate : float; to_rate : float }

type open_loop = {
  arrival : arrival;
  queue_capacity : int;
  workers_per_node : int;
}

type load = {
  clients_per_node : int;
  warmup : float;
  duration : float;
  seed : int;
  dist : key_dist;
  retry_aborts : bool;
  open_loop : open_loop option;
}

let default_load =
  {
    clients_per_node = 10;
    warmup = 0.05;
    duration = 0.25;
    seed = 42;
    dist = Uniform;
    retry_aborts = false;
    open_loop = None;
  }

type result = {
  committed : int;
  committed_ro : int;
  aborted : int;
  throughput : float;
  abort_rate : float;
  latency : Stats.t;
  ro_latency : Stats.t;
  update_latency : Stats.t;
  offered : int;
  accepted : int;
  rejected : int;
  sojourn : Stats.t;
  service : Stats.t;
  queue_wait : Stats.t;
}

type counters = {
  mutable committed : int;
  mutable committed_ro : int;
  mutable aborted : int;
}

type open_counters = {
  mutable offered : int;
  mutable accepted : int;
  mutable rejected : int;
}

(* The instantaneous arrival rate: constant for Poisson, linearly
   interpolated from [from_rate] to [to_rate] over [0, horizon] for Ramp
   (clamped outside the sweep window). *)
let arrival_rate arrival ~at ~horizon =
  match arrival with
  | Poisson rate -> rate
  | Ramp { from_rate; to_rate } ->
      let frac =
        if horizon <= 0.0 then 1.0 else Float.max 0.0 (Float.min 1.0 (at /. horizon))
      in
      from_rate +. ((to_rate -. from_rate) *. frac)

let arrival_gap arrival rng ~at ~horizon =
  let rate = arrival_rate arrival ~at ~horizon in
  if rate <= 0.0 then invalid_arg "Driver.arrival_gap: arrival rate must be positive";
  Prng.exponential rng ~mean:(1.0 /. rate)

(* pause after an attempt died to a node crash, before trying fresh keys *)
let crashed_backoff = 1e-3

(* Draw [count] distinct keys for a client on [node]. *)
let pick_keys rng ~dist ~zipf ~total_keys ~local ~locality ~count =
  let draw () =
    if locality > 0.0 && Array.length local > 0 && Prng.float rng 1.0 < locality then
      local.(Prng.int rng (Array.length local))
    else
      match dist with
      | Uniform -> Prng.int rng total_keys
      | Zipfian _ -> Zipf.sample (Option.get zipf) rng
  in
  let rec fill acc n guard =
    if n = 0 || guard > 1000 then acc
    else
      let k = draw () in
      if List.mem k acc then fill acc n (guard + 1) else fill (k :: acc) (n - 1) guard
  in
  fill [] count 0

(* One closed-loop client or open-loop worker: what its transactions draw
   from and count into. *)
type 'h client = {
  sim : Sim.t;
  ops : 'h ops;
  rng : Prng.t;
  node : Ids.node;
  profile : profile;
  load : load;
  zipf : Zipf.t option;
  total_keys : int;
  local : Ids.key array;
  mutable values : int;  (* values written so far: each one is unique *)
  mutable read_only : bool;  (* the kind of the transaction drawn last *)
  counters : counters;
  latency : Stats.t;
  ro_latency : Stats.t;
  update_latency : Stats.t;
}

let run_once c keys =
  let h = c.ops.begin_txn ~node:c.node ~read_only:c.read_only in
  if c.read_only then List.iter (fun k -> ignore (c.ops.read h k)) keys
  else
    List.iter
      (fun k ->
        let v = c.ops.read h k in
        c.values <- c.values + 1;
        c.ops.write h k (Printf.sprintf "%d:%d.%d (was %s)" c.node c.values k v))
      keys;
  c.ops.commit h

(* Under [Config.durability] a crash of the client's home node abandons
   the in-flight transaction: no verdict is recorded (the checker accepts
   incomplete transactions), and the client backs off and moves on —
   begin_txn keeps raising until the node finishes recovery. *)
let rec attempt c keys ~aborts_from ~retry_until =
  match run_once c keys with
  | exception Sss_net.Rpc.Crashed _ ->
      Sim.sleep c.sim crashed_backoff;
      false
  | false ->
      if Sim.now c.sim >= aborts_from then c.counters.aborted <- c.counters.aborted + 1;
      c.load.retry_aborts && Sim.now c.sim < retry_until && attempt c keys ~aborts_from ~retry_until
  | true -> true

(* One transaction: draw its kind and keys, then attempt it.  An abort
   counts if it happens at or after [aborts_from], and under
   [retry_aborts] the transaction is retried before [retry_until].
   [true] once it committed. *)
let transaction c ~aborts_from ~retry_until =
  c.read_only <- Prng.float c.rng 1.0 < c.profile.read_only_ratio;
  let count = if c.read_only then c.profile.ro_ops else update_ops in
  let keys =
    pick_keys c.rng ~dist:c.load.dist ~zipf:c.zipf ~total_keys:c.total_keys ~local:c.local
      ~locality:c.profile.locality ~count
  in
  attempt c keys ~aborts_from ~retry_until

(* Count a measured commit of latency [elapsed]. *)
let committed c elapsed =
  c.counters.committed <- c.counters.committed + 1;
  if c.read_only then c.counters.committed_ro <- c.counters.committed_ro + 1;
  Stats.add c.latency elapsed;
  Stats.add (if c.read_only then c.ro_latency else c.update_latency) elapsed

let client_loop c ~stop ~measure_from =
  let rec txn_loop () =
    if Sim.now c.sim < stop then begin
      let started = Sim.now c.sim in
      if
        transaction c ~aborts_from:measure_from ~retry_until:stop
        && Sim.now c.sim >= measure_from && started >= measure_from
      then committed c (Sim.now c.sim -. started);
      txn_loop ()
    end
  in
  txn_loop ()

(* ---------- open loop: seeded arrival process + bounded admission ---------- *)

(* One node's admission queue: arrival timestamps waiting for a worker.
   The generator pushes (or rejects, when full); workers drain. *)
type lane = {
  queue : float Queue.t;
  mutable gen_done : bool;
  nonempty : Sim.Cond.t;
}

let open_generator sim ~arng ~arrival ~lane ~capacity ~stop ~measure_from ~ocounters =
  let rec gen () =
    let at = Sim.now sim in
    let gap = arrival_gap arrival arng ~at ~horizon:stop in
    if at +. gap < stop then begin
      Sim.sleep sim gap;
      let now = Sim.now sim in
      let measured = now >= measure_from in
      if measured then ocounters.offered <- ocounters.offered + 1;
      (* capacity bounds WAITING requests: a full queue rejects the arrival
         even while workers are busy elsewhere, and capacity 0 rejects
         everything (pure loss system) *)
      if Queue.length lane.queue >= capacity then begin
        if measured then ocounters.rejected <- ocounters.rejected + 1
      end
      else begin
        Queue.push now lane.queue;
        if measured then ocounters.accepted <- ocounters.accepted + 1;
        Sim.Cond.broadcast sim lane.nonempty
      end;
      gen ()
    end
  in
  gen ();
  lane.gen_done <- true;
  Sim.Cond.broadcast sim lane.nonempty

let open_worker c ~measure_from ~lane ~sojourn ~service ~queue_wait =
  let rec serve () =
    match Queue.take_opt lane.queue with
    | Some arrived ->
        let dequeued = Sim.now c.sim in
        (* the measurement window is keyed on ARRIVAL time: a request that
           arrived during warmup but finished inside the window would bias
           the sojourn distribution low (its queueing happened off-window);
           so its aborts count all or none *)
        let measured = arrived >= measure_from in
        let aborts_from = if measured then Float.neg_infinity else Float.infinity in
        if transaction c ~aborts_from ~retry_until:Float.infinity && measured then begin
          let finished = Sim.now c.sim in
          let svc = finished -. dequeued in
          committed c svc;
          Stats.add service svc;
          Stats.add sojourn (finished -. arrived);
          Stats.add queue_wait (dequeued -. arrived)
        end;
        serve ()
    | None ->
        if not lane.gen_done then begin
          Sim.Cond.await c.sim lane.nonempty (fun () ->
              (not (Queue.is_empty lane.queue)) || lane.gen_done);
          serve ()
        end
  in
  serve ()

let run sim ~nodes ~total_keys ~local_keys ~profile ~load ~ops =
  (* a transaction with no operation sends no message, so a loop of them
     would never advance virtual time *)
  if profile.ro_ops < 1 then invalid_arg "Driver.run: ro_ops must be at least 1";
  let zipf =
    match load.dist with
    | Uniform -> None
    | Zipfian theta -> Some (Zipf.create ~n:total_keys ~theta)
  in
  let base_rng = Prng.create ~seed:load.seed in
  let counters = { committed = 0; committed_ro = 0; aborted = 0 } in
  let ocounters = { offered = 0; accepted = 0; rejected = 0 } in
  let latency = Stats.create () in
  let ro_latency = Stats.create () in
  let update_latency = Stats.create () in
  let sojourn = Stats.create () in
  let service = Stats.create () in
  let queue_wait = Stats.create () in
  let measure_from = load.warmup in
  let stop = load.warmup +. load.duration in
  let client node local =
    {
      sim; ops; rng = Prng.split base_rng; node; profile; load; zipf; total_keys; local;
      values = 0; read_only = false; counters; latency; ro_latency; update_latency;
    }
  in
  (match load.open_loop with
  | None ->
      for node = 0 to nodes - 1 do
        let local = local_keys node in
        for _ = 1 to load.clients_per_node do
          let c = client node local in
          Sim.spawn sim (fun () -> client_loop c ~stop ~measure_from)
        done
      done
  | Some ol ->
      (* The arrival processes draw from a private splitmix stream (seed
         perturbed by a fixed tag), so arrival randomness never interleaves
         with the workers' key/mix draws — mirroring how sss_chaos keeps
         fault injection off the workload's stream. *)
      let arrival_base = Prng.create ~seed:(load.seed lxor 0x6f70656e) in
      for node = 0 to nodes - 1 do
        let local = local_keys node in
        let lane =
          { queue = Queue.create (); gen_done = false; nonempty = Sim.Cond.create () }
        in
        let arng = Prng.split arrival_base in
        Sim.spawn sim (fun () ->
            open_generator sim ~arng ~arrival:ol.arrival ~lane ~capacity:ol.queue_capacity
              ~stop ~measure_from ~ocounters);
        for _ = 1 to ol.workers_per_node do
          let c = client node local in
          Sim.spawn sim (fun () ->
              open_worker c ~measure_from ~lane ~sojourn ~service ~queue_wait)
        done
      done);
  Sim.run sim;
  {
    committed = counters.committed;
    committed_ro = counters.committed_ro;
    aborted = counters.aborted;
    throughput = float_of_int counters.committed /. load.duration;
    abort_rate =
      (let total = counters.committed + counters.aborted in
       if total = 0 then 0.0 else float_of_int counters.aborted /. float_of_int total);
    latency;
    ro_latency;
    update_latency;
    offered = ocounters.offered;
    accepted = ocounters.accepted;
    rejected = ocounters.rejected;
    sojourn;
    service;
    queue_wait;
  }
