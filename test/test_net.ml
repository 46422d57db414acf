(* Tests for the simulated network: latency, priorities, CPU serialization,
   fault injection, and the RPC helpers. *)

open Sss_sim
open Sss_net

let config ?(latency_base = 20e-6) ?(latency_jitter = 0.0) ?(self_latency = 1e-6)
    ?(cpu_per_message = 0.0) () =
  Network.{ latency_base; latency_jitter; self_latency; cpu_per_message }

let make ?(nodes = 3) ?(cfg = config ()) () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:1 in
  let net = Network.create sim rng ~nodes ~config:cfg in
  (sim, net)

let test_delivery_latency () =
  let sim, net = make () in
  let got = ref None in
  Network.set_handler net 1 (fun ~src msg -> got := Some (src, msg, Sim.now sim));
  Network.send net ~src:0 ~dst:1 "hello";
  Sim.run sim;
  match !got with
  | Some (src, msg, at) ->
      Alcotest.(check int) "src" 0 src;
      Alcotest.(check string) "payload" "hello" msg;
      Alcotest.(check (float 1e-9)) "one-way latency" 20e-6 at
  | None -> Alcotest.fail "message not delivered"

let test_self_delivery () =
  let sim, net = make () in
  let at = ref (-1.0) in
  Network.set_handler net 0 (fun ~src:_ _ -> at := Sim.now sim);
  Network.send net ~src:0 ~dst:0 "me";
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "self latency" 1e-6 !at

let test_priority_under_saturation () =
  (* With a slow CPU, many same-time arrivals are served by priority. *)
  let cfg = config ~latency_base:10e-6 ~cpu_per_message:5e-6 () in
  let sim, net = make ~cfg () in
  let order = ref [] in
  Network.set_handler net 1 (fun ~src:_ msg -> order := msg :: !order);
  Network.send net ~prio:100 ~src:0 ~dst:1 "low1";
  Network.send net ~prio:100 ~src:0 ~dst:1 "low2";
  Network.send net ~prio:10 ~src:0 ~dst:1 "urgent";
  Sim.run sim;
  (* All three arrive at t=10µs; the first to be *served* wins by priority
     among those queued. *)
  Alcotest.(check (list string)) "urgent first" [ "urgent"; "low1"; "low2" ] (List.rev !order)

let test_cpu_serializes () =
  let cfg = config ~latency_base:0.0 ~self_latency:0.0 ~cpu_per_message:1e-3 () in
  let sim, net = make ~cfg () in
  let times = ref [] in
  Network.set_handler net 1 (fun ~src:_ _ -> times := Sim.now sim :: !times);
  for _ = 1 to 3 do
    Network.send net ~src:0 ~dst:1 ()
  done;
  Sim.run sim;
  Alcotest.(check (list (float 1e-9)))
    "spaced by service time"
    [ 1e-3; 2e-3; 3e-3 ]
    (List.rev !times)

let test_crash_drops () =
  let sim, net = make () in
  let count = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr count);
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 "lost";
  Sim.run sim;
  Alcotest.(check int) "nothing delivered" 0 !count;
  Alcotest.(check bool) "crashed" true (Network.is_crashed net 1);
  Network.recover net 1;
  Network.send net ~src:0 ~dst:1 "back";
  Sim.run sim;
  Alcotest.(check int) "delivered after recover" 1 !count;
  let st = Network.stats net in
  Alcotest.(check int) "one dropped" 1 st.Network.dropped

let test_crashed_sender () =
  let sim, net = make () in
  let count = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr count);
  Network.crash net 0;
  Network.send net ~src:0 ~dst:1 "from the grave";
  Sim.run sim;
  Alcotest.(check int) "crashed node sends nothing" 0 !count

let test_partition () =
  let sim, net = make () in
  let count = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr count);
  Network.sever net 0 1;
  Network.send net ~src:0 ~dst:1 "blocked";
  Network.send net ~src:1 ~dst:0 "blocked too";
  Sim.run sim;
  Alcotest.(check int) "severed both ways" 0 !count;
  Network.heal net 0 1;
  Network.send net ~src:0 ~dst:1 "open";
  Sim.run sim;
  Alcotest.(check int) "healed" 1 !count

(* ---------- Rpc ---------- *)

let test_pending_first_wins () =
  let sim = Sim.create () in
  let p = Rpc.Pending.create () in
  let id, iv = Rpc.Pending.fresh p in
  let got = ref None in
  Sim.spawn sim (fun () -> got := Some (Rpc.Pending.await sim iv));
  Sim.schedule sim ~delay:1.0 (fun () -> Rpc.Pending.resolve sim p id "fast");
  Sim.schedule sim ~delay:2.0 (fun () -> Rpc.Pending.resolve sim p id "slow");
  Sim.run sim;
  Alcotest.(check (option string)) "first response wins" (Some "fast") !got;
  Alcotest.(check int) "slot cleaned" 0 (Rpc.Pending.outstanding p)

let test_pending_unknown_id_ignored () =
  let sim = Sim.create () in
  let p : string Rpc.Pending.t = Rpc.Pending.create () in
  Sim.spawn sim (fun () -> Rpc.Pending.resolve sim p 12345 "ghost");
  Sim.run sim

(* --- Reliable transport edge cases ------------------------------------- *)

type rmsg = Tracked of { token : int; inner : string } | Delivered of { token : int }

(* A two-node cell wired exactly as the reliable.mli example prescribes: the
   receiver sends a receipt for *every* copy and processes the payload only
   when [Reliable.receive] says the token is new. *)
let reliable_cell ~retry () =
  let sim, net = make ~nodes:2 () in
  let rel = Reliable.create sim net ~retry in
  let processed = ref [] and copies = ref 0 in
  Network.set_handler net 1 (fun ~src msg ->
      match msg with
      | Tracked { token; inner } ->
          incr copies;
          Network.send net ~src:1 ~dst:src (Delivered { token });
          if Reliable.receive rel token then processed := inner :: !processed
      | Delivered _ -> ());
  Network.set_handler net 0 (fun ~src:_ msg ->
      match msg with Delivered { token } -> Reliable.delivered rel token | Tracked _ -> ());
  (sim, net, rel, processed, copies)

let test_reliable_ack_after_stall () =
  (* A tiny retry budget against a severed link exhausts into a stall; a
     receipt showing up *after* the stall must be ignored — no state change,
     no resurrected retry timer — and fresh sends must still work. *)
  let retry = Reliable.{ initial = 100e-6; max = 100e-6; limit = 2 } in
  let sim, net, rel, processed, copies = reliable_cell ~retry () in
  Network.sever net 0 1;
  let token = ref (-1) in
  Reliable.send rel ~src:0 ~dst:1 (fun t ->
      token := t;
      Tracked { token = t; inner = "stalled" });
  Sim.run sim;
  Alcotest.(check int) "gave up after the budget" 1 (Reliable.stalled rel);
  Alcotest.(check int) "no copy got through" 0 !copies;
  let retries_before = Reliable.retries rel in
  Network.heal net 0 1;
  Reliable.delivered rel !token;
  Reliable.delivered rel !token;
  Sim.run sim;
  Alcotest.(check int) "late receipt is a no-op (retries)" retries_before (Reliable.retries rel);
  Alcotest.(check int) "late receipt is a no-op (stalls)" 1 (Reliable.stalled rel);
  Reliable.send rel ~src:0 ~dst:1 (fun t -> Tracked { token = t; inner = "fresh" });
  Sim.run sim;
  Alcotest.(check (list string)) "fresh send processed" [ "fresh" ] !processed

let test_reliable_retry_schedule () =
  (* Every receipt is lost, so the sender re-sends after 0.5 ms, then after
     waits doubling up to [max] (3.5 ms and past it capped at 4 ms), and
     gives up when its [limit]-th wait ends.  Copies arrive one 20 us hop
     after each send. *)
  let retry = Reliable.{ initial = 0.5e-3; max = 4e-3; limit = 6 } in
  let sim, net, rel, processed, _ = reliable_cell ~retry () in
  let arrivals = ref [] in
  Network.set_perturb net
    (Some
       (fun ~src:_ ~dst:_ msg ->
         match msg with
         | Tracked _ ->
             arrivals := (Sim.now sim +. 20e-6) :: !arrivals;
             Network.no_fault
         | Delivered _ -> { Network.no_fault with drop = true }));
  Reliable.send rel ~src:0 ~dst:1 (fun t -> Tracked { token = t; inner = "lost receipts" });
  Sim.run sim;
  Alcotest.(check (list (float 1e-12)))
    "copies at the backoff schedule"
    (List.map (fun ms -> (ms *. 1e-3) +. 20e-6) [ 0.0; 0.5; 1.5; 3.5; 7.5; 11.5 ])
    (List.rev !arrivals);
  Alcotest.(check int) "re-sends" 5 (Reliable.retries rel);
  Alcotest.(check int) "stalled after the budget" 1 (Reliable.stalled rel);
  Alcotest.(check (float 1e-12)) "stall ends the run" 15.5e-3 (Sim.now sim);
  Alcotest.(check (list string)) "processed once" [ "lost receipts" ] !processed

let test_reliable_settled_send_cancels_timer () =
  (* The receipt cancels the retry timer: the run ends when the receipt
     lands (two 20 us hops), not at the 10 s retry deadline, and the
     cancelled timer is not counted as an event. *)
  let retry = Reliable.{ initial = 10.0; max = 10.0; limit = 3 } in
  let sim, _, rel, processed, _ = reliable_cell ~retry () in
  Reliable.send rel ~src:0 ~dst:1 (fun t -> Tracked { token = t; inner = "ok" });
  Sim.run sim;
  Alcotest.(check (list string)) "processed" [ "ok" ] !processed;
  Alcotest.(check (float 1e-12)) "run ends with the receipt" 40e-6 (Sim.now sim);
  Alcotest.(check int) "no retries" 0 (Reliable.retries rel);
  (* two deliveries, each four events (delivery, serve step, dispatch and
     the handler fused into it): nothing else *)
  Alcotest.(check int) "no timer event" 8 (Sim.events_processed sim)

let test_reliable_duplicate_copies () =
  (* The chaos duplication rule hands the receiver extra copies of the same
     envelope; the token dedups them to a single processing.  The retry
     schedule sits far beyond the test horizon so every copy below comes from
     the perturbation, not from a retry racing the receipt. *)
  let retry = Reliable.{ initial = 10.0; max = 10.0; limit = 3 } in
  let sim, net, rel, processed, copies = reliable_cell ~retry () in
  Network.set_perturb net
    (Some
       (fun ~src:_ ~dst:_ msg ->
         match msg with
         | Tracked _ -> { Network.no_fault with duplicates = 2 }
         | Delivered _ -> Network.no_fault));
  Reliable.send rel ~src:0 ~dst:1 (fun t -> Tracked { token = t; inner = "dup" });
  Sim.run sim;
  Alcotest.(check int) "three copies arrived" 3 !copies;
  Alcotest.(check (list string)) "processed exactly once" [ "dup" ] !processed;
  Alcotest.(check int) "no retries needed" 0 (Reliable.retries rel)

let test_reliable_dedup_across_crash () =
  (* Receipts are lost at first, so the sender keeps re-sending a payload the
     receiver has already processed; mid-stream the receiver crashes and
     recovers.  Duplicates landing after the restart must still be rejected by
     the token, and the send must settle (not stall) once receipts flow. *)
  let retry = Reliable.{ initial = 100e-6; max = 100e-6; limit = 200 } in
  let sim, net, rel, processed, copies = reliable_cell ~retry () in
  let token = ref (-1) in
  let lose_receipts = ref true in
  Network.set_perturb net
    (Some
       (fun ~src:_ ~dst:_ msg ->
         match msg with
         | Delivered _ when !lose_receipts -> { Network.no_fault with drop = true }
         | _ -> Network.no_fault));
  Reliable.send rel ~src:0 ~dst:1 (fun t ->
      token := t;
      Tracked { token = t; inner = "once" });
  let copies_at_recovery = ref 0 in
  Sim.schedule sim ~delay:350e-6 (fun () -> Network.crash net 1);
  Sim.schedule sim ~delay:800e-6 (fun () ->
      Network.recover net 1;
      copies_at_recovery := !copies);
  Sim.schedule sim ~delay:1.5e-3 (fun () -> lose_receipts := false);
  Sim.run sim;
  Alcotest.(check bool) "sender retried" true (Reliable.retries rel > 0);
  Alcotest.(check bool) "duplicates reached the receiver" true (!copies > 1);
  Alcotest.(check bool) "duplicates landed after the restart" true (!copies > !copies_at_recovery);
  Alcotest.(check (list string)) "processed exactly once" [ "once" ] !processed;
  Alcotest.(check int) "settled, not stalled" 0 (Reliable.stalled rel);
  Alcotest.(check bool) "token stays seen after restart" false (Reliable.receive rel !token)

let test_reliable_dedup_outlives_long_schedule () =
  (* A one-second backoff cap over 64 attempts keeps a send alive for about
     a minute, while a send every millisecond pushes the receiver through a
     hundred thousand tokens and past the point where old tokens retire.
     The receipts of token [first] are always lost, so its copies keep
     arriving up to a minute after it was processed: every late copy must
     be rejected.  Every copy of token [late] is lost for its first 50 s:
     the copy that finally lands must still be processed, once. *)
  let retry = Reliable.{ initial = 1.0; max = 1.0; limit = 64 } in
  let sim, net = make ~nodes:2 () in
  let rel = Reliable.create sim net ~retry in
  let first = ref (-1) and late = ref (-1) in
  let processed_first = ref 0 and processed_at = ref 0.0 and late_copies = ref 0 in
  let processed_late = ref 0 in
  Network.set_handler net 1 (fun ~src msg ->
      match msg with
      | Tracked { token; _ } ->
          Network.send net ~src:1 ~dst:src (Delivered { token });
          if token = !first && !processed_first > 0 && Sim.now sim -. !processed_at > 30.0 then
            incr late_copies;
          if Reliable.receive rel token then begin
            if token = !first then begin
              incr processed_first;
              processed_at := Sim.now sim
            end;
            if token = !late then incr processed_late
          end
      | Delivered _ -> ());
  Network.set_handler net 0 (fun ~src:_ msg ->
      match msg with Delivered { token } -> Reliable.delivered rel token | Tracked _ -> ());
  Network.set_perturb net
    (Some
       (fun ~src:_ ~dst:_ msg ->
         match msg with
         | Delivered { token } when token = !first -> { Network.no_fault with drop = true }
         | Tracked { token; _ } when token = !late && Sim.now sim < 50.0 ->
             { Network.no_fault with drop = true }
         | _ -> Network.no_fault));
  Reliable.send rel ~src:0 ~dst:1 (fun t ->
      first := t;
      Tracked { token = t; inner = "first" });
  Reliable.send rel ~src:0 ~dst:1 (fun t ->
      late := t;
      Tracked { token = t; inner = "late" });
  let rec filler () =
    if Sim.now sim < 100.0 then begin
      Reliable.send rel ~src:0 ~dst:1 (fun t -> Tracked { token = t; inner = "" });
      Sim.schedule sim ~delay:1e-3 filler
    end
  in
  filler ();
  Sim.run sim;
  Alcotest.(check bool) "copies arrived more than 30 s after processing" true (!late_copies > 0);
  Alcotest.(check int) "processed exactly once" 1 !processed_first;
  Alcotest.(check int) "a first copy 50 s late is processed" 1 !processed_late;
  Alcotest.(check int) "only the receipt-less send stalled" 1 (Reliable.stalled rel);
  (* never sent: it reads as seen only because its word retired *)
  Alcotest.(check bool) "old words retired" false (Reliable.receive rel (!first - 1))

let () =
  Alcotest.run "net"
    [
      ( "network",
        [
          Alcotest.test_case "delivery latency" `Quick test_delivery_latency;
          Alcotest.test_case "self delivery" `Quick test_self_delivery;
          Alcotest.test_case "priority under saturation" `Quick test_priority_under_saturation;
          Alcotest.test_case "cpu serializes" `Quick test_cpu_serializes;
          Alcotest.test_case "crash drops" `Quick test_crash_drops;
          Alcotest.test_case "crashed sender" `Quick test_crashed_sender;
          Alcotest.test_case "partition" `Quick test_partition;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "pending first wins" `Quick test_pending_first_wins;
          Alcotest.test_case "pending unknown id" `Quick test_pending_unknown_id_ignored;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "ack after stall" `Quick test_reliable_ack_after_stall;
          Alcotest.test_case "retry schedule" `Quick test_reliable_retry_schedule;
          Alcotest.test_case "settled send cancels its timer" `Quick
            test_reliable_settled_send_cancels_timer;
          Alcotest.test_case "duplicate copies" `Quick test_reliable_duplicate_copies;
          Alcotest.test_case "dedup across crash" `Quick test_reliable_dedup_across_crash;
          Alcotest.test_case "dedup outlives a long schedule" `Quick
            test_reliable_dedup_outlives_long_schedule;
        ] );
    ]
