(* Engine-only probe: schedules self-rescheduling callbacks with a
   network-like delay mix and reports words allocated and wall time per
   event, isolating Sim/Equeue overhead from protocol allocation. *)

open Sss_sim

let () =
  let mode = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2 in
  Sim.tune_gc ();
  let sim = Sim.create () in
  let n = ref 0 in
  let limit = 5_000_000 in
  (* xorshift for a deterministic latency-like mix *)
  let st = ref 0x1e3779b97f4a7c15 in
  let rand () =
    let x = !st in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    st := x;
    float_of_int (x land 0xffff) /. 65536.0
  in
  (* 1024 self-rescheduling chains keep the queue at a steady fig3-like
     occupancy; each event schedules exactly one successor. *)
  let rec step () =
    incr n;
    if !n < limit then begin
      (* mode selects the delay profile so engine paths can be measured in
         isolation: 0 = delay-0 wakeups (each chain keeps its start instant,
         about a hundred to a bucket, so every pop scans a full current
         bucket), 1 = short hops (buckets), 2 = network mix incl.
         far-future timers (overflow) *)
      let r = rand () in
      let delay =
        match mode with
        | 0 -> 0.0
        | 1 -> 30e-6 *. rand ()
        | _ ->
            if r < 0.80 then 30e-6 *. rand ()
            else if r < 0.95 then 1e-4 +. (9e-4 *. rand ())
            else 1e-3 +. (49e-3 *. rand ())
      in
      (* the zero-allocation fn/arg path — the same API the protocol hot
         paths use, so a regression there shows up in words/event here *)
      Sim.schedule_apply sim ~delay step ()
    end
  in
  for _ = 1 to 1024 do
    Sim.schedule_apply sim ~delay:(1e-5 *. rand ()) step ()
  done;
  let w0 = Sim.allocated_words () in
  let t0 = (Unix.gettimeofday () [@wallclock_ok]) in
  Sim.run sim;
  let t1 = (Unix.gettimeofday () [@wallclock_ok]) in
  let w1 = Sim.allocated_words () in
  let events = Sim.events_processed sim in
  let words = w1 -. w0 in
  Printf.printf "events          %d\n" events;
  Printf.printf "events/sec      %.0f\n" (float_of_int events /. (t1 -. t0));
  Printf.printf "words/event     %.2f\n" (words /. float_of_int events)
