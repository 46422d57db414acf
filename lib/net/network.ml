open Sss_sim

type config = {
  latency_base : float;
  latency_jitter : float;
  self_latency : float;
  cpu_per_message : float;
}

let default_config =
  { latency_base = 20e-6; latency_jitter = 2e-6; self_latency = 1e-6; cpu_per_message = 2e-6 }

(* Ingress order is (prio, seq) packed into one int — seq is unique and
   assigned at delivery, prio < 2^18, so a single int comparison reproduces
   the lexicographic order exactly. *)
let[@inline] pack_key ~prio ~seq = (prio lsl 44) lor seq

(* Specialized ingress min-heap on the packed key, struct-of-arrays: keys
   are immediate ints, [sents] is a flat float array (no boxed-float
   traffic), and messages are recycled [Obj.t] slots.  One push and one pop
   per delivered message makes this one of the simulator's hottest
   structures.  [pop_min] writes the minimum into the [p_*] slots — there
   is at most one outstanding dispatch per node, so the slots stay valid
   until the next pop — and poisons the vacated message slot so nothing is
   pinned past its dispatch.  The [Obj] casts are confined to this module;
   push and pop sites repair the ['msg] type. *)
module Iq = struct
  type t = {
    mutable keys : int array;
    mutable srcs : int array;
    mutable sents : float array;
    mutable msgs : Obj.t array;
    mutable size : int;
    mutable p_key : int;
    mutable p_src : int;
    p_sent : float array;  (* 1 element; flat so reuse doesn't box *)
    mutable p_msg : Obj.t;
  }

  let no_msg : Obj.t = Obj.repr ()

  let create () =
    {
      keys = [||];
      srcs = [||];
      sents = [||];
      msgs = [||];
      size = 0;
      p_key = 0;
      p_src = 0;
      p_sent = Array.make 1 0.0;
      p_msg = no_msg;
    }

  let is_empty q = q.size = 0

  let grow q =
    let cap = Array.length q.keys in
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nk = Array.make ncap 0
    and ns = Array.make ncap 0
    and nt = Array.make ncap 0.0
    and nm = Array.make ncap no_msg in
    Array.blit q.keys 0 nk 0 q.size;
    Array.blit q.srcs 0 ns 0 q.size;
    Array.blit q.sents 0 nt 0 q.size;
    Array.blit q.msgs 0 nm 0 q.size;
    q.keys <- nk;
    q.srcs <- ns;
    q.sents <- nt;
    q.msgs <- nm

  let[@hot] push q key src sent msg =
    if q.size = Array.length q.keys then grow q;
    let ks = q.keys and ss = q.srcs and ts = q.sents and ms = q.msgs in
    let i = ref q.size in
    q.size <- q.size + 1;
    let moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) / 2 in
      let pk = Array.unsafe_get ks p in
      if key < pk then begin
        Array.unsafe_set ks !i pk;
        Array.unsafe_set ss !i (Array.unsafe_get ss p);
        Array.unsafe_set ts !i (Array.unsafe_get ts p);
        Array.unsafe_set ms !i (Array.unsafe_get ms p);
        i := p
      end
      else moving := false
    done;
    Array.unsafe_set ks !i key;
    Array.unsafe_set ss !i src;
    Array.unsafe_set ts !i sent;
    Array.unsafe_set ms !i msg

  (* precondition: size > 0 *)
  let[@hot] pop_min q =
    let ks = q.keys and ss = q.srcs and ts = q.sents and ms = q.msgs in
    q.p_key <- Array.unsafe_get ks 0;
    q.p_src <- Array.unsafe_get ss 0;
    q.p_sent.(0) <- Array.unsafe_get ts 0;
    q.p_msg <- Array.unsafe_get ms 0;
    let n = q.size - 1 in
    q.size <- n;
    let lk = Array.unsafe_get ks n in
    let lsrc = Array.unsafe_get ss n in
    let lt = Array.unsafe_get ts n in
    let lm = Array.unsafe_get ms n in
    Array.unsafe_set ms n no_msg;
    if n > 0 then begin
      let i = ref 0 in
      let moving = ref true in
      while !moving do
        let l = (2 * !i) + 1 in
        if l >= n then moving := false
        else begin
          let r = l + 1 in
          let c =
            if r < n && Array.unsafe_get ks r < Array.unsafe_get ks l then r else l
          in
          let ck = Array.unsafe_get ks c in
          if ck < lk then begin
            Array.unsafe_set ks !i ck;
            Array.unsafe_set ss !i (Array.unsafe_get ss c);
            Array.unsafe_set ts !i (Array.unsafe_get ts c);
            Array.unsafe_set ms !i (Array.unsafe_get ms c);
            i := c
          end
          else moving := false
        end
      done;
      Array.unsafe_set ks !i lk;
      Array.unsafe_set ss !i lsrc;
      Array.unsafe_set ts !i lt;
      Array.unsafe_set ms !i lm
    end
end

(* Sentinel handler: a node without one installed.  Compared by physical
   identity on the dispatch path, so the common case is one pointer test
   instead of an option probe, and the no-handler case keeps the exact
   event accounting of the old [None] branch. *)
let no_handler : src:Sss_data.Ids.node -> 'a -> unit = fun ~src:_ _ -> ()

let nop () = ()

type 'msg node_state = {
  mutable handler : src:Sss_data.Ids.node -> 'msg -> unit;
  queue : Iq.t;
  mutable serving : bool;
  mutable crashed : bool;
  (* Persistent per-node closures, created once at [create]: the serve
     chain schedules these instead of allocating a closure per message. *)
  mutable serve_cb : unit -> unit;
  mutable dispatch_cb : unit -> unit;
  mutable handler_thunk : unit -> unit;
}

type fault = { drop : bool; extra_delay : float; duplicates : int }

let no_fault = { drop = false; extra_delay = 0.0; duplicates = 0 }

type stats = { sent : int; delivered : int; dropped : int; bytes : int }

(* An observer pairs the sink with the protocol's message classifier; the
   network itself has no idea what a message means. *)
type 'msg observer = { obs : Sss_obs.Obs.t; kind_of : 'msg -> string }

type 'msg t = {
  sim : Sim.t;
  rng : Prng.t;
  config : config;
  size_of : 'msg -> int;
  nodes : 'msg node_state array;
  (* Free list of flight envelopes (see [flight] below): steady-state send
     and delivery recycle envelopes instead of allocating per message. *)
  mutable pool : 'msg flight array;
  mutable pool_n : int;
  mutable severed : (Sss_data.Ids.node * Sss_data.Ids.node) list;
  mutable perturb : (src:Sss_data.Ids.node -> dst:Sss_data.Ids.node -> 'msg -> fault) option;
  mutable observer : 'msg observer option;
  mutable seq : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
}

(* A message in flight between [send] and its delivery event: the recycled
   envelope [Sim.schedule_apply] threads through the queue, so a send
   allocates no closure and no fresh record.  [f_sent] is a 1-element float
   array because a mutable float field of a mixed record would box on every
   reuse.  [f_src] doubles as the poison marker: -1 while the envelope sits
   in the free list, so delivery of a double-freed envelope fails fast in
   debug builds. *)
and 'msg flight = {
  f_net : 'msg t;
  mutable f_prio : int;
  mutable f_src : int;
  mutable f_dst : int;
  f_sent : float array;
  mutable f_msg : Obj.t;
}

let set_handler t n f = t.nodes.(n).handler <- f

let set_observer t o = t.observer <- o

(* ---- flight pool ---- *)

let[@hot] take_flight t =
  let n = t.pool_n in
  if n = 0 then
    { f_net = t; f_prio = 0; f_src = 0; f_dst = 0; f_sent = Array.make 1 0.0; f_msg = Iq.no_msg }
  else begin
    t.pool_n <- n - 1;
    Array.unsafe_get t.pool (n - 1)
  end

let[@hot] return_flight t fl =
  fl.f_msg <- Iq.no_msg;
  fl.f_src <- -1;
  let cap = Array.length t.pool in
  if t.pool_n = cap then
    (* doubling by [append] copies without a seed: [Array.make] of more
       than 256 slots seeded with a young envelope runs a minor collection
       first *)
    t.pool <- (if cap = 0 then Array.make 16 fl else Array.append t.pool t.pool);
  Array.unsafe_set t.pool t.pool_n fl;
  t.pool_n <- t.pool_n + 1

(* ---- dispatch ---- *)

(* Observation of a dispatch: end-to-end latency histogram per message
   kind.  Reads the queue's popped slots; called only when an observer is
   installed. *)
let observe_dispatch t n (o : _ observer) =
  let q = t.nodes.(n).queue in
  Sss_obs.Obs.observe o.obs
    ("lat.msg." ^ o.kind_of (Obj.obj q.Iq.p_msg))
    (Sim.now t.sim -. q.Iq.p_sent.(0))

(* Drain a node's ingress queue: one plain-callback event per message.  The
   CPU charge is the event's delay; when it fires, [dispatch] runs the
   handler inline under its own effect handler.  A handler that suspends
   simply parks its continuation and the serve chain moves on — blocking
   handlers never stall the queue.  The chain runs entirely on the node's
   persistent closures: a serve step pops into the queue's slots and
   schedules [dispatch_cb]; at most one dispatch per node is outstanding,
   so the slots survive until it reads them. *)
let[@hot] serve t n =
  let st = t.nodes.(n) in
  if Iq.is_empty st.queue then st.serving <- false
  else begin
    Iq.pop_min st.queue;
    Sim.schedule_callback t.sim ~delay:t.config.cpu_per_message st.dispatch_cb
  end

let[@hot] dispatch t n =
  let st = t.nodes.(n) in
  if not st.crashed then begin
    t.delivered <- t.delivered + 1;
    (match t.observer with Some o -> observe_dispatch t n o | None -> ());
    if st.handler != no_handler then begin
      (* the handler fused into this event counts as a simulator event of
         its own *)
      Sim.tick t.sim;
      Sim.run_fiber st.handler_thunk
    end
  end;
  (* unpin after the handler: a suspended fiber already read its args *)
  st.queue.Iq.p_msg <- Iq.no_msg;
  serve t n

let install_node_cbs t n =
  let st = t.nodes.(n) in
  st.serve_cb <- (fun () -> serve t n);
  st.dispatch_cb <- (fun () -> dispatch t n);
  st.handler_thunk <-
    (fun () ->
      let q = st.queue in
      st.handler ~src:q.Iq.p_src (Obj.obj q.Iq.p_msg))

let create ?(size_of = fun _ -> 0) sim rng ~nodes ~config =
  let mk _ =
    {
      handler = no_handler;
      queue = Iq.create ();
      serving = false;
      crashed = false;
      serve_cb = nop;
      dispatch_cb = nop;
      handler_thunk = nop;
    }
  in
  let t =
    {
      sim;
      rng;
      config;
      size_of;
      nodes = Array.init nodes mk;
      pool = [||];
      pool_n = 0;
      severed = [];
      perturb = None;
      observer = None;
      seq = 0;
      sent = 0;
      delivered = 0;
      dropped = 0;
      bytes = 0;
    }
  in
  for n = 0 to nodes - 1 do
    install_node_cbs t n
  done;
  t

(* Every lost message — crashed endpoint, severed link, injected loss —
   bumps [dropped] and, when observed, its kind's [msg.lost.<kind>]. *)
let lose t msg =
  t.dropped <- t.dropped + 1;
  match t.observer with
  | Some o -> Sss_obs.Obs.incr o.obs ("msg.lost." ^ o.kind_of msg)
  | None -> ()

let[@hot] deliver t ~prio ~src ~dst ~sent msg =
  let st = t.nodes.(dst) in
  if st.crashed then lose t msg
  else begin
    t.seq <- t.seq + 1;
    Iq.push st.queue (pack_key ~prio ~seq:t.seq) src sent (Obj.repr msg);
    (match t.observer with
    | Some o ->
        Sss_obs.Obs.incr o.obs ("msg.recv." ^ o.kind_of msg);
        Sss_obs.Obs.gauge_set o.obs ("net.queue.node" ^ string_of_int dst) st.queue.Iq.size
    | None -> ());
    if not st.serving then begin
      st.serving <- true;
      Sim.schedule_callback t.sim ~delay:0.0 st.serve_cb
    end
  end

(* The delivery event's handler: a static function applied to the recycled
   flight envelope via [Sim.schedule_apply], so the send path allocates
   neither a closure nor an envelope in steady state. *)
let[@hot] deliver_flight : type a. a flight -> unit = fun fl ->
  assert (fl.f_src >= 0);
  let t = fl.f_net in
  let prio = fl.f_prio and src = fl.f_src and dst = fl.f_dst in
  let sent = fl.f_sent.(0) in
  let msg : a = Obj.obj fl.f_msg in
  return_flight t fl;
  deliver t ~prio ~src ~dst ~sent msg

(* [node] annotations keep the body monomorphic (int compares); untyped it
   would generalize to ['a] and compile to [caml_equal]. *)
let[@hot] rec severed_mem sev (a : Sss_data.Ids.node) (b : Sss_data.Ids.node) =
  match sev with
  | [] -> false
  | (x, y) :: tl -> (x = a && y = b) || (x = b && y = a) || severed_mem tl a b

let[@hot] link_severed t a b = severed_mem t.severed a b

let[@hot] send t ?(prio = 100) ~src ~dst msg =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + t.size_of msg;
  (match t.observer with
  | Some o -> Sss_obs.Obs.incr o.obs ("msg.sent." ^ o.kind_of msg)
  | None -> ());
  if t.nodes.(src).crashed || link_severed t src dst then lose t msg
  else begin
    (* Installed fault plans see the message after the built-in loss checks;
       when no perturb is installed this path draws from the network PRNG
       exactly as before, so healthy-run trajectories are unchanged. *)
    let fault =
      match t.perturb with None -> no_fault | Some f -> f ~src ~dst msg
    in
    if fault.drop then lose t msg
    else begin
      let latency =
        if src = dst then t.config.self_latency
        else
          t.config.latency_base
          +. (if t.config.latency_jitter > 0.0 then
                Prng.exponential t.rng ~mean:t.config.latency_jitter
              else 0.0)
      in
      let latency = latency +. fault.extra_delay in
      let sent = Sim.now t.sim in
      (* delivery never suspends: a bare callback event applying the static
         [deliver_flight] to a recycled envelope — no closure per send *)
      let fl = take_flight t in
      fl.f_prio <- prio;
      fl.f_src <- src;
      fl.f_dst <- dst;
      fl.f_sent.(0) <- sent;
      fl.f_msg <- Obj.repr msg;
      Sim.schedule_apply t.sim ~delay:latency deliver_flight fl;
      for _ = 1 to fault.duplicates do
        let fl = take_flight t in
        fl.f_prio <- prio;
        fl.f_src <- src;
        fl.f_dst <- dst;
        fl.f_sent.(0) <- sent;
        fl.f_msg <- Obj.repr msg;
        Sim.schedule_apply t.sim ~delay:latency deliver_flight fl
      done
    end
  end

let crash t n = t.nodes.(n).crashed <- true

let recover t n = t.nodes.(n).crashed <- false

let is_crashed t n = t.nodes.(n).crashed

let sever t a b = if not (link_severed t a b) then t.severed <- (a, b) :: t.severed

let heal t a b =
  t.severed <- List.filter (fun (x, y) -> not ((x = a && y = b) || (x = b && y = a))) t.severed

let set_perturb t f = t.perturb <- f

let stats t = { sent = t.sent; delivered = t.delivered; dropped = t.dropped; bytes = t.bytes }
