(* Write-ahead log with group commit, fuzzy checkpoints and redo recovery,
   simulated on the virtual clock through Iodev.  See storage.mli for the
   three disciplines (atomic apply+append, durable-before-visible,
   immutable snapshots) that make redo recovery correct without page idempotence. *)

open Sss_sim

type stats = {
  flushes : int;
  flushed_records : int;
  flushed_bytes : int;
  checkpoints : int;
  recoveries : int;
  replayed_records : int;
  recovery_seconds : float;
}

type ('r, 's) t = {
  sim : Sim.t;
  dev : Iodev.t;
  record_bytes : 'r -> int;
  snapshot : unit -> 's;
  snapshot_bytes : 's -> int;
  obs : Sss_obs.Obs.t option;
  (* volatile: lost at crash *)
  mutable buffer : (int * 'r) list;  (* newest first *)
  mutable buffer_bytes : int;
  mutable flush_inflight : bool;
  mutable ckpt_inflight : bool;
  mutable ckpt_interval : float;  (* 0. = checkpoints disabled *)
  mutable ckpt_armed : bool;  (* a checkpoint timer is pending *)
  (* survives crashes *)
  mutable next_lsn : int;  (* monotone across crashes *)
  mutable epoch : int;  (* bumped at crash; stale completions check it *)
  mutable durable : (int * 'r) list;  (* newest first *)
  mutable durable_lsn : int;
  mutable checkpoint : ('s * int) option;  (* copy, LSN boundary *)
  mutable checkpoint_bytes : int;
  durable_changed : Sim.Cond.t;
  (* telemetry *)
  mutable st_flushes : int;
  mutable st_records : int;
  mutable st_bytes : int;
  mutable st_checkpoints : int;
  mutable st_recoveries : int;
  mutable st_replayed : int;
  mutable st_recovery_seconds : float;
}

(* every flush pays a small framing overhead on top of the record bytes *)
let flush_header_bytes = 16

let create sim dev ~record_bytes ~snapshot ~snapshot_bytes ?obs () =
  {
    sim;
    dev;
    record_bytes;
    snapshot;
    snapshot_bytes;
    obs;
    buffer = [];
    buffer_bytes = 0;
    flush_inflight = false;
    ckpt_inflight = false;
    ckpt_interval = 0.0;
    ckpt_armed = false;
    next_lsn = 0;
    epoch = 0;
    durable = [];
    durable_lsn = -1;
    checkpoint = None;
    checkpoint_bytes = 0;
    durable_changed = Sim.Cond.create ();
    st_flushes = 0;
    st_records = 0;
    st_bytes = 0;
    st_checkpoints = 0;
    st_recoveries = 0;
    st_replayed = 0;
    st_recovery_seconds = 0.0;
  }

let rec start_flush t =
  match t.buffer with
  | [] -> ()
  | (top, _) :: _ as batch ->
      t.flush_inflight <- true;
      let bytes = t.buffer_bytes + flush_header_bytes in
      let count = List.length batch in
      t.buffer <- [];
      t.buffer_bytes <- 0;
      let epoch = t.epoch in
      let began = Sim.now t.sim in
      Iodev.submit t.dev ~bytes (fun () ->
          if t.epoch = epoch then begin
            t.durable <- List.rev_append (List.rev batch) t.durable;
            t.durable_lsn <- top;
            t.flush_inflight <- false;
            t.st_flushes <- t.st_flushes + 1;
            t.st_records <- t.st_records + count;
            t.st_bytes <- t.st_bytes + bytes;
            (match t.obs with
            | Some o ->
                Sss_obs.Obs.incr o "log.flush";
                Sss_obs.Obs.add o "log.flush.records" count;
                Sss_obs.Obs.observe o "lat.log.flush" (Sim.now t.sim -. began)
            | None -> ());
            Sim.Cond.broadcast t.sim t.durable_changed;
            start_flush t
          end)

(* Records past the last completed checkpoint exist that a crash would
   force into replay — the condition under which a checkpoint is worth
   taking (and its timer worth keeping armed). *)
let dirty t =
  let boundary = match t.checkpoint with Some (_, b) -> b | None -> 0 in
  t.next_lsn > boundary

(* The checkpoint timer is demand-driven: armed by the first append after a
   checkpoint, quiescent while the log is clean.  A free-running periodic
   timer would keep the event queue nonempty forever and [Sim.run] (which
   drains to empty) would never return. *)
let rec take_checkpoint t =
  if not t.ckpt_inflight then begin
    t.ckpt_inflight <- true;
    let snap = t.snapshot () in
    let boundary = t.next_lsn in
    let bytes = t.snapshot_bytes snap in
    let epoch = t.epoch in
    let began = Sim.now t.sim in
    Iodev.submit t.dev ~bytes (fun () ->
        if t.epoch = epoch then begin
          t.checkpoint <- Some (snap, boundary);
          t.checkpoint_bytes <- bytes;
          t.ckpt_inflight <- false;
          t.st_checkpoints <- t.st_checkpoints + 1;
          (* truncation: records the snapshot covers are dead *)
          t.durable <- List.filter (fun (lsn, _) -> lsn >= boundary) t.durable;
          (match t.obs with
          | Some o ->
              Sss_obs.Obs.incr o "log.checkpoint";
              Sss_obs.Obs.observe o "lat.log.checkpoint" (Sim.now t.sim -. began)
          | None -> ());
          if dirty t then maybe_arm t
        end)
  end

and maybe_arm t =
  if t.ckpt_interval > 0.0 && not t.ckpt_armed then begin
    t.ckpt_armed <- true;
    let epoch = t.epoch in
    Sim.schedule_callback t.sim ~delay:t.ckpt_interval (fun () ->
        if t.epoch = epoch then begin
          t.ckpt_armed <- false;
          if dirty t then take_checkpoint t
        end)
  end

let append t r =
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  t.buffer <- (lsn, r) :: t.buffer;
  t.buffer_bytes <- t.buffer_bytes + t.record_bytes r;
  if not t.flush_inflight then start_flush t;
  maybe_arm t;
  lsn

let await t lsn =
  let epoch = t.epoch in
  Sim.Cond.await t.sim t.durable_changed (fun () ->
      t.epoch <> epoch || t.durable_lsn >= lsn);
  t.epoch = epoch

let durable_lsn t = t.durable_lsn

let checkpoint t = Option.map fst t.checkpoint

let start_checkpoints t ~interval =
  if interval > 0.0 then begin
    t.ckpt_interval <- interval;
    if dirty t then maybe_arm t
  end

let crash t =
  t.epoch <- t.epoch + 1;
  t.buffer <- [];
  t.buffer_bytes <- 0;
  t.flush_inflight <- false;
  t.ckpt_inflight <- false;
  t.ckpt_armed <- false;
  Sim.Cond.broadcast t.sim t.durable_changed

let recover t k =
  let boundary = match t.checkpoint with Some (_, b) -> b | None -> 0 in
  let tail =
    List.rev (List.filter (fun (lsn, _) -> lsn >= boundary) t.durable)
  in
  let bytes =
    List.fold_left
      (fun acc (_, r) -> acc + t.record_bytes r)
      (t.checkpoint_bytes + flush_header_bytes)
      tail
  in
  let epoch = t.epoch in
  let began = Sim.now t.sim in
  Iodev.submit t.dev ~bytes (fun () ->
      if t.epoch = epoch then begin
        t.st_recoveries <- t.st_recoveries + 1;
        t.st_replayed <- t.st_replayed + List.length tail;
        t.st_recovery_seconds <- t.st_recovery_seconds +. (Sim.now t.sim -. began);
        (match t.obs with
        | Some o ->
            Sss_obs.Obs.incr o "log.recovery";
            Sss_obs.Obs.observe o "lat.log.recovery" (Sim.now t.sim -. began)
        | None -> ());
        let recovered = match t.checkpoint with Some (s, _) -> Some s | None -> None in
        k ~recovered ~replay:(List.map snd tail)
      end)

let stats t =
  {
    flushes = t.st_flushes;
    flushed_records = t.st_records;
    flushed_bytes = t.st_bytes;
    checkpoints = t.st_checkpoints;
    recoveries = t.st_recoveries;
    replayed_records = t.st_replayed;
    recovery_seconds = t.st_recovery_seconds;
  }

let zero_stats =
  {
    flushes = 0;
    flushed_records = 0;
    flushed_bytes = 0;
    checkpoints = 0;
    recoveries = 0;
    replayed_records = 0;
    recovery_seconds = 0.0;
  }

let add_stats a b =
  {
    flushes = a.flushes + b.flushes;
    flushed_records = a.flushed_records + b.flushed_records;
    flushed_bytes = a.flushed_bytes + b.flushed_bytes;
    checkpoints = a.checkpoints + b.checkpoints;
    recoveries = a.recoveries + b.recoveries;
    replayed_records = a.replayed_records + b.replayed_records;
    recovery_seconds = a.recovery_seconds +. b.recovery_seconds;
  }
