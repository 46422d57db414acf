(* One benchmark cell: a fresh simulator and cluster of one protocol, driven
   by [Sss_workload.Driver.run] through an instrumented [ops] record.

   The wrapper sees every client-API call, so the benchmark counts attempts,
   commits and failures by virtual time itself instead of trusting a
   protocol's own counters, and a cell that raises is scored, not fatal. *)

open Sss_sim
open Sss_data
module Driver = Sss_workload.Driver
module Stats = Sss_workload.Stats
module Checker = Sss_consistency.Checker
module Chaos = Sss_chaos.Chaos
module Obs = Sss_obs.Obs
module Network = Sss_net.Network
module Storage = Sss_storage.Storage

type system = Sss | Walter | Twopc | Rococo

let systems = [ Sss; Walter; Twopc; Rococo ]

let system_name = function Sss -> "sss" | Walter -> "walter" | Twopc -> "2pc" | Rococo -> "rococo"

(* One node fails at [at] and comes back at [restart_at].  A NIC crash is
   the fail-stop of [Chaos]'s base model: messages to and from the node are
   lost while its state survives.  A durable crash also discards the
   node's volatile state and replays its write-ahead log on restart. *)
type crash = { at : float; restart_at : float; node : int; durable : bool }

type spec = {
  label : string;
  group : string;  (* cells of one group differ only in seed; figures pool them *)
  system : system;
  config : Sss_kv.Config.t;
  profile : Driver.profile;
  load : Driver.load;
  crash : crash option;
  battery : bool;  (* run the checker battery over the recorded history *)
  primary : bool;  (* in the group its system's virtual metrics are read from *)
}

(* A transaction begun in the window that has not returned by the window's
   end plus this much virtual time counts as stalled, hence failed. *)
let grace = 0.05

let window spec = (spec.load.warmup, spec.load.warmup +. spec.load.duration)

(* ---------- the four stores behind one record ---------- *)

type 'h store = {
  ops : 'h Driver.ops;
  txn_id : 'h -> Ids.txn;
  local_keys : Ids.node -> Ids.key array;
  net : unit -> Network.stats;
  obs : Obs.t option;
  quiescent : unit -> (unit, string) result;
  history : Sss_consistency.History.t;
  chaos : durable:bool -> Chaos.plan -> Chaos.handle;
  kv : Sss_kv.Kv.cluster option;
}

type 'r user = { use : 'h. 'h store -> 'r }

let with_store sim spec (u : 'r user) : 'r =
  let c = spec.config in
  let install net kind_of on_crash on_restart ~durable plan =
    if durable then Chaos.install sim net ~kind_of ~on_crash ~on_restart plan
    else Chaos.install sim net ~kind_of plan
  in
  match spec.system with
  | Sss ->
      let module K = Sss_kv.Kv in
      let cl = K.create sim c in
      u.use
        {
          ops =
            {
              Driver.begin_txn = (fun ~node ~read_only -> K.begin_txn cl ~node ~read_only);
              read = K.read;
              write = K.write;
              commit = K.commit;
            };
          txn_id = K.txn_id;
          local_keys = (fun n -> Replication.keys_at cl.Sss_kv.State.repl n);
          net = (fun () -> K.network_stats cl);
          obs = K.obs cl;
          quiescent = (fun () -> K.quiescent cl);
          history = K.history cl;
          chaos =
            install (K.network cl) Sss_kv.Message.kind_name (K.crash_node cl)
              (K.restart_node cl);
          kv = Some cl;
        }
  | Walter ->
      let module W = Walter_kv.Walter in
      let cl = W.create sim c in
      u.use
        {
          ops =
            {
              Driver.begin_txn = (fun ~node ~read_only -> W.begin_txn cl ~node ~read_only);
              read = W.read;
              write = W.write;
              commit = W.commit;
            };
          txn_id = W.txn_id;
          local_keys = (fun n -> Replication.keys_at (W.repl cl) n);
          net = (fun () -> Network.stats (W.network cl));
          obs = W.obs cl;
          quiescent = (fun () -> W.quiescent cl);
          history = W.history cl;
          chaos = install (W.network cl) W.message_kind (W.crash_node cl) (W.restart_node cl);
          kv = None;
        }
  | Twopc ->
      let module T = Twopc_kv.Twopc in
      let cl = T.create sim c in
      u.use
        {
          ops =
            {
              Driver.begin_txn = (fun ~node ~read_only -> T.begin_txn cl ~node ~read_only);
              read = T.read;
              write = T.write;
              commit = T.commit;
            };
          txn_id = T.txn_id;
          local_keys = T.local_keys cl;
          net = (fun () -> Network.stats (T.network cl));
          obs = T.obs cl;
          quiescent = (fun () -> T.quiescent cl);
          history = T.history cl;
          chaos = install (T.network cl) T.message_kind (T.crash_node cl) (T.restart_node cl);
          kv = None;
        }
  | Rococo ->
      let module R = Rococo_kv.Rococo in
      let cl = R.create sim c in
      u.use
        {
          ops =
            {
              Driver.begin_txn = (fun ~node ~read_only -> R.begin_txn cl ~node ~read_only);
              read = R.read;
              write = R.write;
              commit = R.commit;
            };
          txn_id = R.txn_id;
          local_keys = (fun n -> Replication.keys_at (R.repl cl) n);
          net = (fun () -> Network.stats (R.network cl));
          obs = R.obs cl;
          quiescent = (fun () -> R.quiescent cl);
          history = R.history cl;
          chaos = install (R.network cl) R.message_kind (R.crash_node cl) (R.restart_node cl);
          kv = None;
        }

(* ---------- the instrumented ops wrapper ---------- *)

type counts = {
  mutable begun : int;
  mutable begun_pre : int;  (* begun before the window *)
  mutable ended_pre : int;  (* ... and returned by window end + grace *)
  mutable begun_window : int;  (* attempts: begun inside the window *)
  mutable ok_window : int;  (* ... and committed by window end + grace *)
  mutable ended_window : int;  (* ... and returned at all by then *)
  mutable committed : int;  (* every commit, any time *)
  mutable committed_window : int;  (* commits returned inside the window *)
  mutable late_commits : int;  (* commits returned after window end + grace *)
  mutable aborted : int;
  mutable ro_aborts : int;
  mutable calls : int;
  mutable first_begin : float;  (* wall clock of the first simulated begin *)
}

type 'h txn = { h : 'h; ro : bool; began : float; span : int }

let wrap sim (st : 'h store) ~spec ~counts ~spans ~cell : 'h txn Driver.ops =
  let w0, w1 = window spec in
  let in_window t = t >= w0 && t < w1 in
  let deadline = w1 +. grace in
  let ended ~began ~ok =
    if Sim.now sim <= deadline then
      if began < w0 then counts.ended_pre <- counts.ended_pre + 1
      else if began < w1 then begin
        counts.ended_window <- counts.ended_window + 1;
        if ok then counts.ok_window <- counts.ok_window + 1
      end
  in
  let call kind t f =
    counts.calls <- counts.calls + 1;
    let t0 = Sim.now sim in
    let trace () =
      match spans with
      | None -> ()
      | Some s ->
          ignore
            (Trace.add s ~kind ~cell ~txn:(st.txn_id t.h) ~parent:t.span ~t0 ~t1:(Sim.now sim))
    in
    match f () with
    | v ->
        trace ();
        v
    | exception e ->
        trace ();
        ended ~began:t.began ~ok:false;
        (match spans with Some s -> Trace.close s t.span ~t1:(Sim.now sim) | None -> ());
        raise e
  in
  {
    Driver.begin_txn =
      (fun ~node ~read_only ->
        if counts.begun = 0 then counts.first_begin <- Trace.wall ();
        counts.begun <- counts.begun + 1;
        counts.calls <- counts.calls + 1;
        let began = Sim.now sim in
        if began < w0 then counts.begun_pre <- counts.begun_pre + 1
        else if began < w1 then counts.begun_window <- counts.begun_window + 1;
        match st.ops.begin_txn ~node ~read_only with
        | h ->
            let span =
              match spans with
              | None -> -1
              | Some s ->
                  let txn = st.txn_id h in
                  let root = Trace.add s ~kind:Txn ~cell ~txn ~parent:(-1) ~t0:began ~t1:began in
                  ignore
                    (Trace.add s ~kind:Begin ~cell ~txn ~parent:root ~t0:began ~t1:(Sim.now sim));
                  root
            in
            { h; ro = read_only; began; span }
        | exception e ->
            ended ~began ~ok:false;
            raise e);
    read = (fun t k -> call Read t (fun () -> st.ops.read t.h k));
    write = (fun t k v -> call Write t (fun () -> st.ops.write t.h k v));
    commit =
      (fun t ->
        let ok = call Commit t (fun () -> st.ops.commit t.h) in
        let now = Sim.now sim in
        if ok then begin
          counts.committed <- counts.committed + 1;
          if in_window now then counts.committed_window <- counts.committed_window + 1;
          if now > deadline then counts.late_commits <- counts.late_commits + 1
        end
        else begin
          counts.aborted <- counts.aborted + 1;
          if t.ro then counts.ro_aborts <- counts.ro_aborts + 1
        end;
        ended ~began:t.began ~ok;
        (match spans with Some s -> Trace.close s t.span ~t1:now | None -> ());
        ok);
  }

(* ---------- running a cell ---------- *)

type sss_layers = {
  nlog_entries : int;
  store_versions : int;
  store_words : int;
  wal : Storage.stats;
  gc_refreshes : int;
  gc_versions : int;
  gc_entries : int;
  retries : int;
  stalled_sends : int;
  covered_timeouts : int;
  sq_wait : (float * float) option;  (* mean internal, mean snapshot-queue wait (traced) *)
}

type outcome = {
  spec : spec;
  raised : string option;  (* the exception that escaped [Driver.run] *)
  result : Driver.result option;
  counts : counts;
  setup_s : float;  (* wall: cell start -> first simulated begin_txn *)
  run_s : float;  (* wall: the rest of [Driver.run] *)
  check_s : float;
  checks : (string * (unit, string) result * float) list;
  events : int;
  vnow : float;
  alloc_words : float;
  live_words : float;  (* retained by the cluster at run end; 0 unless measured *)
  minor_gcs : int;
  major_gcs : int;
  net : Network.stats;
  obs : Obs.t option;
  sss : sss_layers option;
  chaos : Chaos.stats option;
  history_txns : int;
  probe : Trace.probe option;
}

let allocated () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s)

let sss_layers cl ~traced =
  let module K = Sss_kv.Kv in
  let refreshes, versions, entries = K.gc_stats cl in
  let sq_wait =
    if not traced then None
    else
      match (K.stats cl).Sss_kv.State.latencies with
      | [] -> None
      | lats ->
          let n = float_of_int (List.length lats) in
          let internal, wait =
            List.fold_left (fun (i, w) (b, d, e) -> (i +. (d -. b), w +. (e -. d))) (0.0, 0.0) lats
          in
          Some (internal /. n, wait /. n)
  in
  {
    nlog_entries = K.nlog_entries cl;
    store_versions = K.version_count cl;
    store_words = Sss_data.Mvstore.mem_total (K.mem_words cl);
    wal = K.wal_stats cl;
    gc_refreshes = refreshes;
    gc_versions = versions;
    gc_entries = entries;
    retries = K.transport_retries cl;
    stalled_sends = K.transport_stalled cl;
    covered_timeouts = (K.stats cl).Sss_kv.State.wait_covered_timeouts;
    sq_wait;
  }

let battery h =
  [
    ("external_consistency", fun () -> Checker.external_consistency h);
    ("serializability", fun () -> Checker.serializability h);
    ("no_lost_updates", fun () -> Checker.no_lost_updates h);
    ("no_torn_commits", fun () -> Checker.no_torn_commits h);
    ("read_only_abort_free", fun () -> Checker.read_only_abort_free h);
  ]

let battery_names = List.map fst (battery (Sss_consistency.History.create ~enabled:false ()))

let live () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words

(* [spans] turns on the traced run: Config.observe, snapshot-queue latency
   collection, client-API spans, and the per-event probe.  [measure_live]
   brackets the cell with full major collections to weigh what the cluster
   retains; the collections sit outside every timing. *)
let run ?spans ?(measure_live = false) ~cell spec =
  let traced = spans <> None in
  let spec =
    (* the Obs registry is read, its event ring is not: keep the ring tiny *)
    if traced then
      { spec with config = { spec.config with Sss_kv.Config.observe = true; trace_capacity = 1 } }
    else spec
  in
  let detail = spec.label in
  let span name f =
    match spans with Some s -> Trace.wall_span s ~name ~detail f | None -> f ()
  in
  let live0 = if measure_live then live () else 0.0 in
  let a0, s0 = allocated () in
  let start = Trace.wall () in
  let sim = Sim.create () in
  let counts =
    {
      begun = 0;
      begun_pre = 0;
      ended_pre = 0;
      begun_window = 0;
      ok_window = 0;
      ended_window = 0;
      committed = 0;
      committed_window = 0;
      late_commits = 0;
      aborted = 0;
      ro_aborts = 0;
      calls = 0;
      first_begin = Float.nan;
    }
  in
  with_store sim spec
    {
      use =
        (fun st ->
          let chaos =
            Option.map
              (fun c ->
                st.chaos ~durable:c.durable
                  {
                    Chaos.seed = spec.load.seed;
                    rules = [];
                    events =
                      [ Chaos.Crash { at = c.at; restart_at = Some c.restart_at; node = c.node } ];
                  })
              spec.crash
          in
          (match st.kv with
          | Some cl when traced -> Sss_kv.Kv.set_collect_latencies cl true
          | _ -> ());
          let probe =
            if traced then begin
              let w0, w1 = window spec in
              let p = Trace.probe ~w0 ~w1 in
              Sim.set_probe sim (Some (fun () -> Trace.tick p ~vnow:(Sim.now sim)));
              Some p
            end
            else None
          in
          let ops = wrap sim st ~spec ~counts ~spans ~cell in
          let result, raised =
            span "cell" (fun () ->
                match
                  Driver.run sim ~nodes:spec.config.Sss_kv.Config.nodes
                    ~total_keys:spec.config.Sss_kv.Config.total_keys ~local_keys:st.local_keys
                    ~profile:spec.profile ~load:spec.load ~ops
                with
                | r -> (Some r, None)
                | exception e -> (None, Some (Printexc.to_string e)))
          in
          let finished = Trace.wall () in
          let a1, s1 = allocated () in
          let first = if Float.is_nan counts.first_begin then finished else counts.first_begin in
          Option.iter (fun s -> Trace.wall_interval s ~name:"setup" ~detail ~start ~stop:first) spans;
          let timed name f =
            let t = Trace.wall () in
            let v = span ("check." ^ name) f in
            (name, v, Trace.wall () -. t)
          in
          let checks =
            (if spec.battery && raised = None then List.map (fun (n, f) -> timed n f) (battery st.history)
             else [])
            @ [ timed "quiescent" (fun () -> if raised = None then st.quiescent () else Ok ()) ]
          in
          let check_s = Trace.wall () -. finished in
          let live_words = if measure_live then live () -. live0 else 0.0 in
          let net = st.net () in
          {
            spec;
            raised;
            result;
            counts;
            setup_s = first -. start;
            run_s = finished -. first;
            check_s;
            checks;
            events = Sim.events_processed sim;
            vnow = Sim.now sim;
            alloc_words = a1 -. a0;
            live_words;
            minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
            major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
            net;
            obs = st.obs;
            sss = Option.map (fun cl -> sss_layers cl ~traced) st.kv;
            chaos = Option.map Chaos.stats chaos;
            history_txns =
              (if Sss_consistency.History.enabled st.history then Checker.txn_count st.history
               else 0);
            probe;
          });
    }

(* ---------- derived per-cell figures ---------- *)

let open_rate spec =
  match spec.load.open_loop with
  | Some { Driver.arrival = Driver.Poisson r; _ } -> Some r
  | _ -> None

(* Attempts and failures.  Closed loop: transactions begun in the window,
   failed unless committed by window end + grace.  Open loop: arrivals in
   the window, failed when rejected, aborted, crashed, or committed late.
   Both add transactions begun before the window and still unreturned at
   window end + grace: a client stuck since the warmup is a failure, not
   a quietly smaller rate.  A cell that raised fails every attempt. *)
let attempted_failed o =
  let c = o.counts in
  let stuck = c.begun_pre - c.ended_pre in
  match (o.raised, o.result) with
  | None, Some r when o.spec.load.open_loop <> None ->
      let ok = r.Driver.committed - c.late_commits in
      (r.Driver.offered + stuck, Stdlib.max 0 (r.Driver.offered - ok) + stuck)
  | None, Some _ -> (c.begun_window + stuck, c.begun_window - c.ok_window + stuck)
  | _ ->
      let n = Stdlib.max 1 (c.begun_window + stuck) in
      (n, n)

(* Transactions still unreturned at window end + grace. *)
let stalled o =
  let c = o.counts in
  c.begun_window - c.ended_window + c.begun_pre - c.ended_pre

(* End-to-end virtual latency of one cell: begin -> external commit in the
   closed loop, sojourn from the arrival's due time in the open loop. *)
let vlat o =
  match o.result with
  | None -> Stats.create ()
  | Some r -> if o.spec.load.open_loop <> None then r.Driver.sojourn else r.Driver.latency

(* A [Stats.t]'s samples, ascending: the nearest-rank percentile at each
   rank gives them back exactly. *)
let samples st =
  let n = float_of_int (Stats.count st) in
  Array.init (Stats.count st) (fun i -> Stats.percentile st ((float_of_int i +. 0.5) /. n))

(* The pooled end-to-end latency samples of a group of cells, ascending. *)
let pooled_vlat group =
  let a = Array.concat (List.map (fun o -> samples (vlat o)) group) in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of ascending samples; 0 when empty. *)
let nearest sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sum_attempted_failed group =
  List.fold_left
    (fun (a, f) o ->
      let a', f' = attempted_failed o in
      (a + a', f + f'))
    (0, 0) group

(* p99 sojourn over every arrival of a group, rejected and failed ones
   counting as misses (infinite latency). *)
let p99_with_misses group =
  let attempted, failed = sum_attempted_failed group in
  let rank = int_of_float (Float.ceil (0.99 *. float_of_int attempted)) in
  let sorted = pooled_vlat group in
  if attempted = 0 || rank > attempted - failed || rank > Array.length sorted then Float.infinity
  else sorted.(rank - 1)

(* Commits returned inside the window over the window's total length. *)
let window_ktps group =
  let commits = List.fold_left (fun a o -> a + o.counts.committed_window) 0 group in
  let secs = List.fold_left (fun a o -> a +. o.spec.load.duration) 0.0 group in
  if secs = 0.0 then 0.0 else float_of_int commits /. secs /. 1e3

(* Same-seed runs must agree on all of this exactly. *)
let fingerprint o =
  let c = o.counts in
  let l = vlat o in
  ( (o.events, o.vnow, c.begun, c.committed, c.committed_window, c.aborted, c.ok_window),
    (Stats.count l, Stats.percentile l 0.5, Stats.percentile l 0.99),
    o.raised )
