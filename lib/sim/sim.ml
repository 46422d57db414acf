(* Event order is the total order (time, seq).  The queue key is the
   per-simulator sequence number, unique and increasing, so events at equal
   time fire in scheduling order and the queue's pop order is fully
   determined regardless of rung internals. *)

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

(* Hoisted to a constant: none of the three closures captures anything, and
   allocating the handler record per [run_fiber] call would cost several
   words on every message delivery. *)
let fiber_handler : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> ());
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                register (fun () -> Effect.Deep.continue k ()))
        | _ -> None);
  }

let run_fiber f = Effect.Deep.match_with f () fiber_handler

(* The queue stores events as an (fn, arg) application.  Thunk events (the
   classic [schedule]/[spawn] interface) go through one of these two static
   appliers, so the fiber/callback distinction costs no per-event storage;
   [schedule_apply] events pass the caller's long-lived handler directly.
   The Obj casts are confined to these appliers and [schedule_apply], whose
   types guarantee fn and arg were paired at push time. *)
let call_thunk : Obj.t -> unit = fun f -> (Obj.obj f : unit -> unit) ()

let call_fiber : Obj.t -> unit = fun f -> run_fiber (Obj.obj f : unit -> unit)

type t = {
  (* The clock lives in a flat float array rather than a mutable float
     field: a mixed record's float field is boxed, so writing it would
     allocate on every executed event. *)
  clock : float array;
  mutable seq : int;
  mutable processed : int;
  events : Equeue.t;
  (* Observation tap, run after every executed event.  The probe must be
     passive — no scheduling, no PRNG draws — so installing one cannot
     change a trajectory; the observability layer uses it to sample gauges
     "on DES ticks" without the simulator depending on it.  Stored as a
     bare closure ([ignore] when absent) so the per-event path has no
     option check. *)
  mutable probe : unit -> unit;
  (* Cancelled timers still sitting in [events]; see [cancel]. *)
  mutable dead : int;
}

(* The protocols above the simulator remain allocation-heavy (message
   payloads, vector clocks); the default 256k-word minor heap forces a
   minor collection every few thousand events and promotes long-lived
   in-flight state.  Growing it once to 8M words is worth ~15% wall clock
   on the figure benchmarks.  Only ever grow — respect a larger value from
   OCAMLRUNPARAM.  The guard is an Atomic so concurrent [create] calls from
   pool domains (Sss_par) race benignly: exactly one domain performs the
   [Gc.set].  Harnesses that fan out should call [tune_gc] once before
   spawning so the resize happens while the runtime is single-domain. *)
let gc_tuned = Atomic.make false

let tune_gc () =
  if (not (Atomic.get gc_tuned)) && Atomic.compare_and_set gc_tuned false true then begin
    let g = Gc.get () in
    let want = 8 * 1024 * 1024 in
    if g.Gc.minor_heap_size < want then Gc.set { g with Gc.minor_heap_size = want }
  end

let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let create () =
  tune_gc ();
  {
    clock = Array.make 1 0.0;
    seq = 0;
    processed = 0;
    events = Equeue.create ();
    probe = ignore;
    dead = 0;
  }

let[@inline] now t = Array.unsafe_get t.clock 0

let events_processed t = t.processed

let[@inline] [@hot] push t ~delay fn arg =
  assert (delay >= 0.0);
  let key = t.seq in
  t.seq <- key + 1;
  Equeue.push t.events ~time:(now t +. delay) ~key fn arg

let[@inline] [@hot] enqueue t ~delay ~fiber run =
  push t ~delay (if fiber then call_fiber else call_thunk) (Obj.repr run)

let schedule t ~delay f = enqueue t ~delay ~fiber:true f

let schedule_callback t ~delay f = enqueue t ~delay ~fiber:false f

let[@hot] schedule_apply (type a) t ~delay (fn : a -> unit) (arg : a) =
  push t ~delay (Obj.magic (fn : a -> unit) : Obj.t -> unit) (Obj.repr arg)

let spawn t f = schedule t ~delay:0.0 f

let tick t = t.processed <- t.processed + 1

(* [raw_suspend register] parks the fiber and hands [register] the raw
   continuation.  Whoever holds it must arrange for it to run (directly or
   as an event body), exactly once, at the current or a later virtual
   time.  The public [suspend] below enforces this by routing through the
   event queue. *)
let raw_suspend register = Effect.perform (Suspend register)

let suspend t register =
  raw_suspend (fun resume -> register (fun () -> enqueue t ~delay:0.0 ~fiber:false resume))

let sleep t delay = raw_suspend (fun resume -> enqueue t ~delay ~fiber:false resume)

let set_probe t p = t.probe <- (match p with None -> ignore | Some f -> f)

(* ---- cancellable timers ----

   A timer is one mutable cell holding the action it will run.  Firing or
   cancelling swaps in the static [inert] action, so a settled wait drops
   its closure (and with it the continuation and state the closure
   captured) at once, and [fire]'s identity tells a cancelled entry apart
   from a live one.  The queue entry is [(fire_timer, timer)]: a cancelled
   timer stays queued until [run] pops and discards it or a compaction
   filters it out. *)
type timer = { mutable fire : unit -> unit }

let inert () = ()

let fire_timer : Obj.t -> unit =
 fun o ->
  let tm : timer = Obj.obj o in
  let f = tm.fire in
  tm.fire <- inert;
  f ()

let[@inline] push_timer t ~delay tm = push t ~delay fire_timer (Obj.repr tm)

let arm t ~delay f =
  let tm = { fire = f } in
  push_timer t ~delay tm;
  tm

(* Compaction rule: filter the queue once cancelled entries outnumber the
   live ones, and only past a floor that keeps the O(queue + buckets)
   filter pass amortised over at least as many dropped entries. *)
let compact_floor = 1024

let keep_live fn arg = not (fn == fire_timer && (Obj.obj arg : timer).fire == inert)

let compact t =
  Equeue.filter t.events keep_live;
  t.dead <- 0

let[@hot] cancel t tm =
  if tm.fire == inert then false
  else begin
    tm.fire <- inert;
    t.dead <- t.dead + 1;
    if t.dead > compact_floor && 2 * t.dead > Equeue.length t.events then compact t;
    true
  end

let[@inline] [@hot] exec_popped t =
  let q = t.events in
  Array.unsafe_set t.clock 0 (Equeue.popped_time q);
  t.processed <- t.processed + 1;
  Equeue.run_popped q;
  t.probe ()

(* A cancelled timer leaves the queue without touching the clock, the
   event count or the probe. *)
let[@inline] [@hot] step t =
  let q = t.events in
  if Equeue.popped_is q fire_timer && (Obj.obj (Equeue.popped_arg q) : timer).fire == inert
  then begin
    t.dead <- t.dead - 1;
    Equeue.drop_popped q
  end
  else exec_popped t

let run t =
  let q = t.events in
  while Equeue.pop q do
    step t
  done;
  Equeue.release q

let run_until t limit =
  let q = t.events in
  while Equeue.min_time q <= limit && Equeue.pop q do
    step t
  done;
  if now t < limit then t.clock.(0) <- limit

(* Waiter batching: waking W parked fibers used to enqueue W separate
   events — one heap push and one event-loop turn per waiter.  A broadcast
   or fill now enqueues a single run-queue drain that resumes every waiter
   in FIFO order at the same instant.  Trajectories are
   unchanged: the old per-waiter events held consecutive sequence numbers,
   so nothing could interleave between them, and anything a resumed fiber
   schedules lands after the drain either way.  [tick] keeps
   [events_processed] comparable across engines (one logical event per
   waiter). *)
let drain_waiters ((sim, ws) : t * (unit -> unit) list) =
  match ws with
  | [] -> ()
  | w :: rest ->
      w ();
      List.iter
        (fun r ->
          tick sim;
          r ())
        rest

let wake_all sim ws =
  match ws with
  | [] -> ()
  | [ w ] -> enqueue sim ~delay:0.0 ~fiber:false w
  | ws -> schedule_apply sim ~delay:0.0 drain_waiters (sim, List.rev ws)

module Cond = struct

  type t = { mutable waiters : (unit -> unit) list }

  let create () = { waiters = [] }

  let wait _sim c = raw_suspend (fun resume -> c.waiters <- resume :: c.waiters)

  let broadcast sim c =
    let ws = c.waiters in
    c.waiters <- [];
    wake_all sim ws

  let await sim c pred =
    let rec loop () =
      if not (pred ()) then begin
        wait sim c;
        loop ()
      end
    in
    loop ()

  let await_timeout sim c ~timeout pred =
    let deadline = now sim +. timeout in
    let rec loop () =
      if pred () then true
      else if now sim >= deadline then false
      else begin
        (* Park on the condition and arm a backstop; whichever comes first
           disarms the other.  A wake cancels the backstop; a backstop that
           fires compacts the dead waiter out of [c.waiters] immediately —
           a long-lived condition whose waiters keep timing out (lock
           waits, vote timeouts) must not accumulate cancelled closures
           until the next broadcast. *)
        raw_suspend (fun resume ->
            let tm = { fire = inert } in
            let wake () = if cancel sim tm then resume () in
            c.waiters <- wake :: c.waiters;
            tm.fire <-
              (fun () ->
                c.waiters <- List.filter (fun w -> w != wake) c.waiters;
                resume ());
            push_timer sim ~delay:(deadline -. now sim) tm);
        loop ()
      end
    in
    loop ()
end

module Ivar = struct

  type 'a t = { mutable value : 'a option; mutable waiters : (unit -> unit) list }

  let create () = { value = None; waiters = [] }

  let is_filled iv = Option.is_some iv.value

  let fill sim iv v =
    match iv.value with
    | Some _ -> invalid_arg "Sim.Ivar.fill: already filled"
    | None ->
        iv.value <- Some v;
        let ws = iv.waiters in
        iv.waiters <- [];
        wake_all sim ws

  let read sim iv =
    ignore sim;
    match iv.value with
    | Some v -> v
    | None ->
        raw_suspend (fun resume -> iv.waiters <- resume :: iv.waiters);
        (match iv.value with
        | Some v -> v
        | None -> assert false)

  let read_timeout sim iv ~timeout =
    match iv.value with
    | Some _ -> iv.value
    | None ->
        (* the same race as [Cond.await_timeout]: a fill cancels the
           backstop, a backstop that fires compacts the dead waiter *)
        raw_suspend (fun resume ->
            let tm = { fire = inert } in
            let wake () = if cancel sim tm then resume () in
            iv.waiters <- wake :: iv.waiters;
            tm.fire <-
              (fun () ->
                iv.waiters <- List.filter (fun w -> w != wake) iv.waiters;
                resume ());
            push_timer sim ~delay:timeout tm);
        iv.value
end
