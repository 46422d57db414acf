(* Tests for the discrete-event simulator substrate: PRNG, event queue,
   fibers, virtual time, condition variables and ivars. *)

open Sss_sim

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_prng_int_bounds () =
  let g = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let x = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_prng_float_bounds () =
  let g = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let x = Prng.float g 3.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 3.5)
  done

let test_prng_split_independent () =
  let g = Prng.create ~seed:3 in
  let g1 = Prng.split g in
  let g2 = Prng.split g in
  (* Streams from two splits should not coincide. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 g1 = Prng.next_int64 g2 then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 8)

let test_prng_exponential_mean () =
  let g = Prng.create ~seed:11 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential g ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean close to 2.0 (got %f)" mean)
    true
    (abs_float (mean -. 2.0) < 0.1)

(* The ladder queue is exercised through its payload API: each event
   records its own identity when run, making pop order observable. *)

let eq_drain q out =
  while Equeue.pop q do
    Equeue.run_popped q
  done;
  List.rev !out

let test_equeue_sorts () =
  let q = Equeue.create () in
  let out = ref [] in
  let record o = out := (Obj.obj o : int) :: !out in
  let input = [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ] in
  List.iter
    (fun k -> Equeue.push q ~time:(float_of_int k *. 1e-6) ~key:k record (Obj.repr k))
    input;
  Alcotest.(check int) "length" 10 (Equeue.length q);
  Alcotest.(check (list int)) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (eq_drain q out);
  Alcotest.(check bool) "drained" true (Equeue.is_empty q)

let test_equeue_key_ties () =
  (* Same timestamp: the int key (packed priority, sequence) decides. *)
  let q = Equeue.create () in
  let out = ref [] in
  let record o = out := (Obj.obj o : int) :: !out in
  List.iter
    (fun k -> Equeue.push q ~time:42e-6 ~key:k record (Obj.repr k))
    [ 3; 1; 4; 0; 2 ];
  Alcotest.(check (list int)) "key order" [ 0; 1; 2; 3; 4 ] (eq_drain q out)

let test_equeue_empty () =
  let q = Equeue.create () in
  Alcotest.(check bool) "empty" true (Equeue.is_empty q);
  Alcotest.(check int) "length 0" 0 (Equeue.length q);
  Alcotest.(check bool) "pop on empty" false (Equeue.pop q);
  Alcotest.(check bool) "min_time infinity" true (Equeue.min_time q = infinity)

let equeue_property =
  QCheck.Test.make ~name:"equeue pop order matches sort by (time, key)" ~count:200
    QCheck.(list (int_bound 2000))
    (fun xs ->
      let q = Equeue.create () in
      let out = ref [] in
      let record o = out := (Obj.obj o : float * int) :: !out in
      List.iteri
        (fun i us ->
          let time = float_of_int us *. 1e-6 in
          Equeue.push q ~time ~key:i record (Obj.repr (time, i)))
        xs;
      let expect =
        List.sort compare (List.mapi (fun i us -> (float_of_int us *. 1e-6, i)) xs)
      in
      eq_drain q out = expect)

let test_sim_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let record tag () = log := (tag, Sim.now sim) :: !log in
  Sim.schedule sim ~delay:0.3 (record "c");
  Sim.schedule sim ~delay:0.1 (record "a");
  Sim.schedule sim ~delay:0.2 (record "b");
  Sim.run sim;
  Alcotest.(check (list (pair string (float 1e-9))))
    "events by time"
    [ ("a", 0.1); ("b", 0.2); ("c", 0.3) ]
    (List.rev !log)

(* Equal-time events fire in scheduling order, whichever entry point
   scheduled them, including events scheduled while the instant drains. *)
let test_sim_equal_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  Sim.schedule sim ~delay:1.0 (record "a");
  Sim.schedule_callback sim ~delay:1.0 (fun () ->
      record "b" ();
      Sim.schedule_callback sim ~delay:0.0 (record "e"));
  Sim.schedule_apply sim ~delay:1.0 (fun tag -> record tag ()) "c";
  Sim.schedule sim ~delay:0.5 (fun () -> Sim.schedule sim ~delay:0.5 (record "d"));
  Sim.run sim;
  Alcotest.(check (list string)) "scheduling order" [ "a"; "b"; "c"; "d"; "e" ] (List.rev !log)

let test_sim_sleep () =
  let sim = Sim.create () in
  let trace = ref [] in
  Sim.spawn sim (fun () ->
      trace := ("start", Sim.now sim) :: !trace;
      Sim.sleep sim 2.5;
      trace := ("mid", Sim.now sim) :: !trace;
      Sim.sleep sim 1.5;
      trace := ("end", Sim.now sim) :: !trace);
  Sim.run sim;
  Alcotest.(check (list (pair string (float 1e-9))))
    "sleep advances virtual time"
    [ ("start", 0.0); ("mid", 2.5); ("end", 4.0) ]
    (List.rev !trace)

let test_sim_run_until () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () -> fired := 1 :: !fired);
  Sim.schedule sim ~delay:2.0 (fun () -> fired := 2 :: !fired);
  Sim.schedule sim ~delay:3.0 (fun () -> fired := 3 :: !fired);
  Sim.run_until sim 2.0;
  Alcotest.(check (list int)) "only first two" [ 1; 2 ] (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock at limit" 2.0 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check (list int)) "rest run" [ 1; 2; 3 ] (List.rev !fired)

let test_cond_await () =
  let sim = Sim.create () in
  let cond = Sim.Cond.create () in
  let counter = ref 0 in
  let woke_at = ref (-1.0) in
  Sim.spawn sim (fun () ->
      Sim.Cond.await sim cond (fun () -> !counter >= 3);
      woke_at := Sim.now sim);
  for i = 1 to 3 do
    Sim.schedule sim ~delay:(float_of_int i) (fun () ->
        incr counter;
        Sim.Cond.broadcast sim cond)
  done;
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "woke when pred held" 3.0 !woke_at

let test_cond_broadcast_wakes_all () =
  let sim = Sim.create () in
  let cond = Sim.Cond.create () in
  let woken = ref 0 in
  for _ = 1 to 5 do
    Sim.spawn sim (fun () ->
        Sim.Cond.wait sim cond;
        incr woken)
  done;
  Sim.schedule sim ~delay:1.0 (fun () -> Sim.Cond.broadcast sim cond);
  Sim.run sim;
  Alcotest.(check int) "all woken" 5 !woken

let test_cond_await_timeout_expires () =
  let sim = Sim.create () in
  let cond = Sim.Cond.create () in
  let result = ref None in
  Sim.spawn sim (fun () ->
      let ok = Sim.Cond.await_timeout sim cond ~timeout:2.0 (fun () -> false) in
      result := Some (ok, Sim.now sim));
  Sim.run sim;
  Alcotest.(check (option (pair bool (float 1e-9))))
    "timed out at deadline" (Some (false, 2.0)) !result

let test_cond_await_timeout_succeeds () =
  let sim = Sim.create () in
  let cond = Sim.Cond.create () in
  let flag = ref false in
  let result = ref None in
  Sim.spawn sim (fun () ->
      let ok = Sim.Cond.await_timeout sim cond ~timeout:5.0 (fun () -> !flag) in
      result := Some (ok, Sim.now sim));
  Sim.schedule sim ~delay:1.0 (fun () ->
      flag := true;
      Sim.Cond.broadcast sim cond);
  Sim.run sim;
  Alcotest.(check (option (pair bool (float 1e-9))))
    "woke before deadline" (Some (true, 1.0)) !result

let test_ivar_basic () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create () in
  let got = ref None in
  Sim.spawn sim (fun () ->
      let v = Sim.Ivar.read sim iv in
      got := Some (v, Sim.now sim));
  Sim.schedule sim ~delay:1.5 (fun () -> Sim.Ivar.fill sim iv 99);
  Sim.run sim;
  Alcotest.(check (option (pair int (float 1e-9)))) "read value" (Some (99, 1.5)) !got;
  Alcotest.(check bool) "is filled" true (Sim.Ivar.is_filled iv)

let test_ivar_already_filled () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create () in
  Sim.spawn sim (fun () ->
      Sim.Ivar.fill sim iv "x";
      Alcotest.(check string) "immediate read" "x" (Sim.Ivar.read sim iv));
  Sim.run sim

let test_ivar_double_fill_rejected () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create () in
  let raised = ref false in
  Sim.spawn sim (fun () ->
      Sim.Ivar.fill sim iv 1;
      (try Sim.Ivar.fill sim iv 2 with Invalid_argument _ -> raised := true));
  Sim.run sim;
  Alcotest.(check bool) "second fill rejected" true !raised

let test_ivar_read_timeout () =
  let sim = Sim.create () in
  let never = Sim.Ivar.create () in
  let late = Sim.Ivar.create () in
  let r1 = ref (Some 0) and r2 = ref None in
  Sim.spawn sim (fun () -> r1 := Sim.Ivar.read_timeout sim never ~timeout:1.0);
  Sim.spawn sim (fun () -> r2 := Sim.Ivar.read_timeout sim late ~timeout:10.0);
  Sim.schedule sim ~delay:2.0 (fun () -> Sim.Ivar.fill sim late 7);
  Sim.run sim;
  Alcotest.(check (option int)) "timed out" None !r1;
  Alcotest.(check (option int)) "filled in time" (Some 7) !r2

(* ---------- cancellable timers ---------- *)

(* Settled timed waits cancel their backstops: nothing fires at the 30 s
   deadlines (a backstop that ran would resume its fiber a second time), and
   the run ends at the last live event. *)
let test_settled_waits_cancel_backstops () =
  let sim = Sim.create () in
  let iv = Sim.Ivar.create () and c = Sim.Cond.create () in
  let flag = ref false in
  let got = ref None and held = ref None in
  Sim.spawn sim (fun () ->
      let v = Sim.Ivar.read_timeout sim iv ~timeout:30.0 in
      got := Some (v, Sim.now sim));
  Sim.spawn sim (fun () ->
      let ok = Sim.Cond.await_timeout sim c ~timeout:30.0 (fun () -> !flag) in
      held := Some (ok, Sim.now sim));
  Sim.schedule_callback sim ~delay:1.0 (fun () ->
      Sim.Ivar.fill sim iv 7;
      flag := true;
      Sim.Cond.broadcast sim c);
  Sim.run sim;
  Alcotest.(check (option (pair (option int) (float 0.0)))) "read settled" (Some (Some 7, 1.0)) !got;
  Alcotest.(check (option (pair bool (float 0.0)))) "await settled" (Some (true, 1.0)) !held;
  Alcotest.(check (float 0.0)) "run ends at the last live event" 1.0 (Sim.now sim)

let test_cancelled_timer_not_an_event () =
  let sim = Sim.create () in
  let fired = ref [] in
  let doomed = Sim.arm sim ~delay:5.0 (fun () -> fired := "doomed" :: !fired) in
  let kept = Sim.arm sim ~delay:2.0 (fun () -> fired := "kept" :: !fired) in
  let won = ref false and again = ref true in
  Sim.schedule_callback sim ~delay:1.0 (fun () ->
      won := Sim.cancel sim doomed;
      again := Sim.cancel sim doomed);
  Sim.run sim;
  Alcotest.(check (list string)) "only the live timer fired" [ "kept" ] !fired;
  Alcotest.(check bool) "first cancel wins" true !won;
  Alcotest.(check bool) "second cancel is a no-op" false !again;
  Alcotest.(check bool) "cancelling a fired timer is a no-op" false (Sim.cancel sim kept);
  Alcotest.(check int) "cancelled timer not counted" 2 (Sim.events_processed sim);
  Alcotest.(check (float 0.0)) "clock at the last live event" 2.0 (Sim.now sim)

(* Cancel enough timers to pass the compaction rule (more than 1024, and
   more than half the queue), spread over the current bucket, the window
   and the overflow rung; then keep arming.  No cancelled timer may fire,
   and the live ones must fire in (time, scheduling) order. *)
let test_compacted_timers_never_fire () =
  let sim = Sim.create () in
  let fired = ref [] and expect = ref [] in
  let delay i = [| 0.0; 1e-7; 3e-6; 2e-4; 0.01; 0.5; 3.0 |].(i mod 7) in
  let timers =
    Array.init 3000 (fun i -> (i, delay i, Sim.arm sim ~delay:(delay i) (fun () -> fired := i :: !fired)))
  in
  Array.iter
    (fun (i, d, tm) ->
      if i mod 3 = 0 then expect := (d, i) :: !expect
      else Alcotest.(check bool) "cancel pending" true (Sim.cancel sim tm))
    timers;
  for j = 3000 to 3099 do
    let d = delay j in
    ignore (Sim.arm sim ~delay:d (fun () -> fired := j :: !fired));
    expect := (d, j) :: !expect
  done;
  Sim.run sim;
  let order = List.map snd (List.sort compare !expect) in
  Alcotest.(check (list int)) "live timers in order, cancelled never" order (List.rev !fired);
  Alcotest.(check int) "events = live timers" (List.length order) (Sim.events_processed sim)

(* [run] releases the drained queue's storage; the queue must keep working
   afterwards, including for times below the last discarded timer's. *)
let test_push_after_release () =
  let sim = Sim.create () in
  let late = Sim.arm sim ~delay:30.0 (fun () -> Alcotest.fail "cancelled timer fired") in
  Sim.schedule_callback sim ~delay:1.0 (fun () -> ignore (Sim.cancel sim late));
  Sim.run sim;
  Alcotest.(check (float 0.0)) "ended at 1.0" 1.0 (Sim.now sim);
  let fired = ref [] in
  List.iter
    (fun d -> Sim.schedule_callback sim ~delay:d (fun () -> fired := Sim.now sim :: !fired))
    [ 40.0; 0.5; 1e-6; 0.2 ];
  Sim.run sim;
  Alcotest.(check (list (float 1e-12))) "fresh events in order" [ 1.000001; 1.2; 1.5; 41.0 ]
    (List.rev !fired);
  Sim.spawn sim (fun () -> Sim.sleep sim 2.0);
  Sim.run sim;
  Alcotest.(check (float 1e-12)) "fibers after a second release" 43.0 (Sim.now sim)

let test_many_fibers () =
  let sim = Sim.create () in
  let n = 1000 in
  let done_count = ref 0 in
  let g = Prng.create ~seed:5 in
  for _ = 1 to n do
    let naps = 1 + Prng.int g 5 in
    Sim.spawn sim (fun () ->
        for _ = 1 to naps do
          Sim.sleep sim (Prng.float g 1.0)
        done;
        incr done_count)
  done;
  Sim.run sim;
  Alcotest.(check int) "all fibers completed" n !done_count

let test_fiber_exception_propagates () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> failwith "kaboom");
  match Sim.run sim with
  | exception Failure m -> Alcotest.(check string) "propagated" "kaboom" m
  | () -> Alcotest.fail "exception should escape Sim.run"

let test_events_processed_counts () =
  let sim = Sim.create () in
  for _ = 1 to 5 do
    Sim.schedule sim ~delay:0.1 (fun () -> ())
  done;
  Sim.run sim;
  Alcotest.(check bool) "counted at least the scheduled events" true
    (Sim.events_processed sim >= 5)

let test_suspend_roundtrip () =
  let sim = Sim.create () in
  let hops = ref 0 in
  Sim.spawn sim (fun () ->
      (* a custom suspension resumed via an external event *)
      Sim.suspend sim (fun resume -> Sim.schedule sim ~delay:0.5 (fun () -> resume ()));
      incr hops;
      Sim.suspend sim (fun resume -> Sim.schedule sim ~delay:0.5 (fun () -> resume ()));
      incr hops);
  Sim.run sim;
  Alcotest.(check int) "resumed twice" 2 !hops;
  Alcotest.(check (float 1e-9)) "time advanced" 1.0 (Sim.now sim)

let test_determinism () =
  let run_once () =
    let sim = Sim.create () in
    let g = Prng.create ~seed:123 in
    let log = Buffer.create 256 in
    for i = 1 to 50 do
      Sim.spawn sim (fun () ->
          Sim.sleep sim (Prng.float g 10.0);
          Buffer.add_string log (Printf.sprintf "%d@%.9f;" i (Sim.now sim)))
    done;
    Sim.run sim;
    Buffer.contents log
  in
  Alcotest.(check string) "identical traces" (run_once ()) (run_once ())

(* ---------- GC interaction ---------- *)

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

let sink = ref []

let big = ref [||]

(* 200,000 one-element lists (3 words each, minor heap) and 100 arrays of
   999 slots (1,000 words each, allocated directly in the major heap): the
   reading must match to within the probe's own few words, also when no
   minor collection falls inside the window. *)
let test_allocated_words_exact () =
  Gc.minor ();
  let w0 = Sim.allocated_words () in
  for i = 1 to 200_000 do
    sink := [ i ]
  done;
  for i = 1 to 100 do
    big := Array.make 999 i
  done;
  let w = Sim.allocated_words () -. w0 in
  if w < 700_000. || w > 700_200. then Alcotest.failf "measured %.0f words, allocated 700000" w

(* An array of more than 256 slots seeded with a young block makes the
   runtime run a minor collection before allocating it.  Neither a fresh
   simulator (its 1,024-bucket window) nor a growing node log may do so. *)
let test_create_forces_no_minor_gc () =
  ignore (Sys.opaque_identity (Sim.create ()));
  Gc.minor ();
  let c0 = minor_collections () in
  let sim = Sys.opaque_identity (Sim.create ()) in
  Alcotest.(check int) "minor collections in Sim.create" 0 (minor_collections () - c0);
  ignore (Sim.now sim)

let test_nlog_growth_forces_no_minor_gc () =
  let module Nlog = Sss_data.Nlog in
  ignore (Sim.create ());
  Gc.minor ();
  let c0 = minor_collections () in
  let log = Nlog.create ~nodes:2 ~node:0 in
  for i = 1 to 4095 do
    Nlog.add log ~txn:{ Sss_data.Ids.node = 0; local = i }
      ~vc:(Sss_data.Vclock.of_array [| i; 0 |]) ~ws:[]
  done;
  Alcotest.(check int) "log size" 4096 (Nlog.size log);
  Alcotest.(check int) "minor collections while growing" 0 (minor_collections () - c0)

let () =
  Alcotest.run "sim"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
        ] );
      ( "equeue",
        [
          Alcotest.test_case "sorts" `Quick test_equeue_sorts;
          Alcotest.test_case "key ties" `Quick test_equeue_key_ties;
          Alcotest.test_case "empty behaviour" `Quick test_equeue_empty;
          QCheck_alcotest.to_alcotest equeue_property;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_sim_time_order;
          Alcotest.test_case "equal-time FIFO" `Quick test_sim_equal_time_fifo;
          Alcotest.test_case "sleep" `Quick test_sim_sleep;
          Alcotest.test_case "run_until" `Quick test_sim_run_until;
          Alcotest.test_case "many fibers" `Quick test_many_fibers;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "exception propagates" `Quick test_fiber_exception_propagates;
          Alcotest.test_case "events processed" `Quick test_events_processed_counts;
          Alcotest.test_case "suspend roundtrip" `Quick test_suspend_roundtrip;
        ] );
      ( "cond",
        [
          Alcotest.test_case "await" `Quick test_cond_await;
          Alcotest.test_case "broadcast wakes all" `Quick test_cond_broadcast_wakes_all;
          Alcotest.test_case "await_timeout expires" `Quick test_cond_await_timeout_expires;
          Alcotest.test_case "await_timeout succeeds" `Quick test_cond_await_timeout_succeeds;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "basic" `Quick test_ivar_basic;
          Alcotest.test_case "already filled" `Quick test_ivar_already_filled;
          Alcotest.test_case "double fill rejected" `Quick test_ivar_double_fill_rejected;
          Alcotest.test_case "read timeout" `Quick test_ivar_read_timeout;
        ] );
      ( "timer",
        [
          Alcotest.test_case "settled waits cancel backstops" `Quick
            test_settled_waits_cancel_backstops;
          Alcotest.test_case "cancelled timer is not an event" `Quick
            test_cancelled_timer_not_an_event;
          Alcotest.test_case "compacted timers never fire" `Quick test_compacted_timers_never_fire;
          Alcotest.test_case "push after release" `Quick test_push_after_release;
        ] );
      ( "gc",
        [
          Alcotest.test_case "allocated words exact" `Quick test_allocated_words_exact;
          Alcotest.test_case "create forces no minor gc" `Quick test_create_forces_no_minor_gc;
          Alcotest.test_case "nlog growth forces no minor gc" `Quick
            test_nlog_growth_forces_no_minor_gc;
        ] );
    ]
