(* At-least-once delivery with exactly-once processing on top of
   {!Network}: the machinery behind each protocol's fault-tolerance mode.

   The sender wraps a payload in a protocol-level [Tracked]-style envelope
   carrying a token unique across the cluster (the envelope constructor is
   supplied by the protocol, since the message type is its own), then a
   retry timer re-sends the envelope with exponential backoff until the
   receiver's receipt arrives and cancels it, or the retry budget is
   exhausted.  The receiver acknowledges every copy (receipts themselves
   can be lost) but processes the payload only the first time, so protocol
   handlers never observe re-deliveries and need no per-message
   idempotency reasoning.

   Everything runs on virtual time and plain data: no wall clock, no
   ambient randomness, so retries are as deterministic as the rest of the
   simulation.

   Allocation audit: this module is inactive in healthy runs
   ([Config.fault_tolerance] defaults to [false]; [Runtime.send] then
   calls [Network.send] directly), so nothing here sits on the benchmark
   hot path.  In fault-tolerance mode the per-send cost is one envelope,
   one [awaiting] entry (removed when the send settles) and one retry
   timer with its closure per wait — all inherent to the at-least-once
   contract.  The receipt cancels the timer, so a settled send leaves no
   live event behind.  The receiver's dedup costs one bit per token in an
   {!Sss_data.Idset}.  [receive] is [[@hot]]: lint R8 holds its code free
   of closures, tuples and float boxing, and the bitmap allocates only
   when it grows.  What remains is the clock read that stamps a first
   receipt: builds without cross-module inlining pass it as one boxed
   float (2 words), against about 7 words per token for the hashtable
   this replaced. *)

open Sss_sim

type retry = { initial : float; max : float; limit : int }

type 'msg t = {
  sim : Sim.t;
  net : 'msg Network.t;
  retry : retry;
  mutable token : int;  (* cluster-global: tokens are unique per send *)
  awaiting : (int, Sim.timer) Hashtbl.t;  (* token -> its pending retry timer *)
  seen : Sss_data.Idset.t;  (* tokens processed, retired past [dedup_horizon] *)
  mutable retries : int;
  mutable stalled : int;
  mutable obs : Sss_obs.Obs.t option;
}

(* How long a copy may still be in flight or queued after the sender's
   last (re-)send.  Network latency and injected delays are milliseconds;
   the slack is the old fixed horizon, so no schedule forgets a token
   sooner than before. *)
let flight_slack = 30.0

(* How long after a token is minted a copy of it can still arrive: the
   sender's whole watch — the same waits its retry timer makes, [initial]
   doubling up to [max], [limit] of them — plus the flight slack.  A token
   retires from the dedup set only once a later token was first processed
   longer ago than this, so no copy of it can still be on its way. *)
let dedup_horizon r =
  let rec budget attempt timeout acc =
    if attempt > r.limit then acc
    else if timeout *. 2.0 >= r.max then
      (* every later wait is [max] *)
      acc +. timeout +. (float_of_int (r.limit - attempt) *. r.max)
    else budget (attempt + 1) (timeout *. 2.0) (acc +. timeout)
  in
  budget 1 r.initial 0.0 +. flight_slack

let create sim net ~retry =
  {
    sim;
    net;
    retry;
    token = 0;
    awaiting = Hashtbl.create 16;
    seen = Sss_data.Idset.create ~horizon:(dedup_horizon retry);
    retries = 0;
    stalled = 0;
    obs = None;
  }

let set_obs t o = t.obs <- o

let send t ?prio ~src ~dst wrap =
  t.token <- t.token + 1;
  let token = t.token in
  let msg = wrap token in
  Network.send t.net ?prio ~src ~dst msg;
  (* Wait [timeout], then re-send and wait twice as long (capped at [max]).
     The watch gives up silently after [limit] waits (counted in
     [stalled]): an unreachable destination must not keep the event queue
     alive forever, and the foreground waiter has its own backstop that
     turns the stall into a typed {!Rpc.Stalled}. *)
  let rec watch attempt timeout =
    Hashtbl.replace t.awaiting token
      (Sim.arm t.sim ~delay:timeout (fun () ->
           if attempt >= t.retry.limit then begin
             Hashtbl.remove t.awaiting token;
             t.stalled <- t.stalled + 1;
             match t.obs with Some o -> Sss_obs.Obs.incr o "transport.stall" | None -> ()
           end
           else begin
             t.retries <- t.retries + 1;
             (match t.obs with Some o -> Sss_obs.Obs.incr o "transport.retry" | None -> ());
             Network.send t.net ?prio ~src ~dst msg;
             watch (attempt + 1) (Float.min (timeout *. 2.0) t.retry.max)
           end))
  in
  watch 1 t.retry.initial

let delivered t token =
  match Hashtbl.find_opt t.awaiting token with
  | Some tm ->
      Hashtbl.remove t.awaiting token;
      ignore (Sim.cancel t.sim tm)
  | None -> ()  (* late receipt of an already-confirmed (or abandoned) send *)

let[@hot] receive t token =
  if Sss_data.Idset.mem t.seen token then false
  else begin
    Sss_data.Idset.add t.seen token ~now:(Sim.now t.sim);
    true
  end

let retries t = t.retries

let stalled t = t.stalled
