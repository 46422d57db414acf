(* A simulated storage device: a serial resource on the virtual clock, the
   disk-shaped sibling of the network's link model.  Operations queue FIFO;
   each one costs a fixed per-operation latency (the fsync/flush floor) plus
   a size-proportional transfer time.  Completions are plain callbacks on
   the event queue, so the device adds no randomness and no fibers of its
   own — determinism is inherited from [Sim]. *)

type t = {
  sim : Sim.t;
  op_latency : float;  (* seconds per operation: the fsync floor *)
  bandwidth : float;  (* bytes per second of sustained transfer *)
  mutable busy_until : float;  (* completion time of the last queued op *)
  mutable ops : int;
}

let create sim ~op_latency ~bandwidth =
  if op_latency < 0.0 || bandwidth <= 0.0 then
    invalid_arg "Iodev.create: op_latency must be >= 0 and bandwidth > 0";
  { sim; op_latency; bandwidth; busy_until = 0.0; ops = 0 }

let service_time t ~bytes = t.op_latency +. (float_of_int bytes /. t.bandwidth)

let submit t ~bytes k =
  if bytes < 0 then invalid_arg "Iodev.submit: negative size";
  let now = Sim.now t.sim in
  let start = if t.busy_until > now then t.busy_until else now in
  let finish = start +. service_time t ~bytes in
  t.busy_until <- finish;
  t.ops <- t.ops + 1;
  Sim.schedule_callback t.sim ~delay:(finish -. now) k

let ops t = t.ops
