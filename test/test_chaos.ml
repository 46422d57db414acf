(* Deterministic fault injection (sss_chaos): the four systems must survive
   message drops/duplicates, a partition-and-heal cycle, and a node
   crash-and-restart — producing checker-accepted histories with zero SSS
   read-only aborts — and the whole trajectory must replay byte-identically
   from the same seeds. *)

open Sss_sim
open Sss_consistency
module Chaos = Sss_chaos.Chaos
module Store = Sss_experiments.Store
module Spec = Sss_experiments.Spec

let any = { Chaos.src = None; dst = None; kinds = [] }

let rule ?(target = any) ?(drop = 0.0) ?(dup = 0.0) ?(delay = 0.0) ?(from_ = 0.0)
    ?(until = Float.infinity) () =
  { Chaos.target; drop; dup; delay; from_; until }

(* Drops + duplicates throughout, one partition/heal cycle, one node
   crash/restart — all inside the measured window. *)
let base_plan ~seed =
  {
    Chaos.seed;
    rules = [ rule ~drop:0.03 (); rule ~dup:0.02 () ];
    events =
      [
        Chaos.Partition { at = 0.010; heal_at = 0.013; groups = [ [ 0; 1 ]; [ 2; 3 ] ] };
        Chaos.Crash { at = 0.018; restart_at = Some 0.021; node = 2 };
      ];
  }

let chaos_config ~degree ~seed =
  {
    Sss_kv.Config.default with
    nodes = 4;
    replication_degree = degree;
    total_keys = 24;
    seed;
    fault_tolerance = true;
  }

(* One run of [system] under [plan]: its spec and the store's run, whose
   [chaos] is what the plan injected. *)
let run system ~plan ~seed =
  let spec =
    Spec.make ~plan ~clients:2 ~duration:0.03 system
      (chaos_config ~degree:(Store.paper_degree system) ~seed)
  in
  (spec, Spec.run spec)

(* Fail, naming the run's spec. *)
let failf spec fmt =
  Printf.ksprintf (fun msg -> Alcotest.failf "%s -- %s" msg (Spec.to_string spec)) fmt

(* Every property the run's system promises holds, and it ended quiescent. *)
let assert_verdicts spec (o : Store.run) =
  List.iter
    (function
      | check, Store.Fail msg -> failf spec "%s: %s" check msg
      | _, (Pass | Not_promised) -> ())
    (Store.verdicts o.store.system o.store.history ~quiescent:(o.store.quiescent ()))

let systems = Store.[ Sss; Twopc; Walter; Rococo ]

(* ---------- the seed sweep: every system, checker-accepted, under the
   full plan ---------- *)

let test_sweep () =
  let total_committed = ref 0 in
  for seed = 1 to 20 do
    let plan = base_plan ~seed in
    List.iter
      (fun system ->
        let spec, o = run system ~plan ~seed in
        let stats = Option.get o.chaos in
        total_committed := !total_committed + o.result.committed;
        (* the plan must actually bite, or the test proves nothing *)
        if stats.Chaos.injected_drops = 0 then failf spec "plan injected no drops";
        if stats.Chaos.partitions <> 1 || stats.Chaos.heals <> 1 then
          failf spec "partition/heal did not fire";
        if stats.Chaos.crashes <> 1 || stats.Chaos.restarts <> 1 then
          failf spec "crash/restart did not fire";
        assert_verdicts spec o)
      systems
  done;
  if !total_committed = 0 then Alcotest.fail "chaos sweep committed nothing"

(* SSS read-only transactions must abort zero times even mid-partition: not
   just "no RO abort events" (the checker's view) but also committed RO work
   actually happened. *)

let test_sss_ro_abort_zero () =
  for seed = 1 to 20 do
    let spec, o = run Store.Sss ~plan:(base_plan ~seed) ~seed in
    let ro_txns = Hashtbl.create 64 in
    let ro_aborts = ref 0 and ro_commits = ref 0 in
    List.iter
      (fun (s : History.stamped) ->
        match s.History.event with
        | History.Begin { txn; ro = true; _ } -> Hashtbl.replace ro_txns txn ()
        | History.Abort { txn } -> if Hashtbl.mem ro_txns txn then incr ro_aborts
        | History.Commit { txn; _ } -> if Hashtbl.mem ro_txns txn then incr ro_commits
        | _ -> ())
      (History.events o.store.history);
    if !ro_aborts > 0 then failf spec "%d RO aborts" !ro_aborts;
    if !ro_commits = 0 then failf spec "no RO transaction committed"
  done

(* ---------- determinism: same plan + same seed => byte-identical
   trajectory ---------- *)

let test_deterministic_replay () =
  List.iter
    (fun system ->
      let name = Store.system_name system in
      let seed = 5 in
      let spec, a = run system ~plan:(base_plan ~seed) ~seed in
      let _, b = run system ~plan:(base_plan ~seed) ~seed in
      Alcotest.(check int) (name ^ ": events processed") a.des_events b.des_events;
      Alcotest.(check bool) (name ^ ": network stats") true (a.network = b.network);
      Alcotest.(check bool) (name ^ ": chaos stats") true (a.chaos = b.chaos);
      Alcotest.(check int)
        (name ^ ": history length")
        (History.length a.store.history) (History.length b.store.history);
      if History.events a.store.history <> History.events b.store.history then
        failf spec "histories diverge between identical runs")
    systems

(* ---------- liveness: after the partition heals, every node's clients
   commit again ---------- *)

let test_partition_heal_liveness () =
  let heal_at = 0.015 in
  let plan =
    {
      Chaos.seed = 3;
      rules = [];
      events = [ Chaos.Partition { at = 0.008; heal_at; groups = [ [ 0; 1 ]; [ 2; 3 ] ] } ];
    }
  in
  let spec, o = run Store.Sss ~plan ~seed:3 in
  assert_verdicts spec o;
  (* every node commits something strictly after the heal *)
  let nodes_committing = Hashtbl.create 4 in
  List.iter
    (fun (s : History.stamped) ->
      match s.History.event with
      | History.Commit { txn; _ } when s.History.at > heal_at ->
          Hashtbl.replace nodes_committing txn.Sss_data.Ids.node ()
      | _ -> ())
    (History.events o.store.history);
  for node = 0 to 3 do
    if not (Hashtbl.mem nodes_committing node) then
      failf spec "node %d committed nothing after the heal" node
  done

(* ---------- DSL ---------- *)

let test_dsl_parse () =
  match
    Chaos.parse
      "seed=7; drop(p=0.05,kind=prepare+vote,src=1,dst=2,from=0.01,until=0.02); \
       dup(p=0.02); delay(mean=0.0005); \
       partition(at=0.010,heal=0.013,groups=0.1|2.3); crash(at=0.018,restart=0.021,node=2)"
  with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan ->
      Alcotest.(check int) "seed" 7 plan.Chaos.seed;
      Alcotest.(check int) "rules" 3 (List.length plan.Chaos.rules);
      (match plan.Chaos.rules with
      | [ d; u; l ] ->
          Alcotest.(check (float 0.0)) "drop p" 0.05 d.Chaos.drop;
          Alcotest.(check (list string))
            "drop kinds" [ "prepare"; "vote" ] d.Chaos.target.Chaos.kinds;
          Alcotest.(check (option int)) "drop src" (Some 1) d.Chaos.target.Chaos.src;
          Alcotest.(check (float 0.0)) "drop until" 0.02 d.Chaos.until;
          Alcotest.(check (float 0.0)) "dup p" 0.02 u.Chaos.dup;
          Alcotest.(check (float 0.0)) "delay mean" 0.0005 l.Chaos.delay
      | _ -> Alcotest.fail "rule shapes");
      (match plan.Chaos.events with
      | [ Chaos.Partition { at; heal_at; groups }; Chaos.Crash { at = cat; restart_at; node } ]
        ->
          Alcotest.(check (float 0.0)) "partition at" 0.010 at;
          Alcotest.(check (float 0.0)) "heal at" 0.013 heal_at;
          Alcotest.(check (list (list int))) "groups" [ [ 0; 1 ]; [ 2; 3 ] ] groups;
          Alcotest.(check (float 0.0)) "crash at" 0.018 cat;
          Alcotest.(check (option (float 0.0))) "restart" (Some 0.021) restart_at;
          Alcotest.(check int) "crash node" 2 node
      | _ -> Alcotest.fail "event shapes");
      Alcotest.(check (result unit string)) "valid" (Ok ()) (Chaos.validate ~nodes:4 plan)

let test_dsl_roundtrip () =
  let plans =
    [
      Chaos.empty;
      base_plan ~seed:42;
      {
        Chaos.seed = 9;
        rules =
          [
            rule
              ~target:{ Chaos.src = Some 0; dst = Some 3; kinds = [ "prepare"; "decide" ] }
              ~drop:0.125 ~dup:0.25 ~delay:0.0005 ~from_:0.001 ~until:0.002 ();
            rule ();
          ];
        events = [ Chaos.Crash { at = 0.01; restart_at = None; node = 1 } ];
      };
    ]
  in
  List.iter
    (fun plan ->
      let s = Chaos.to_string plan in
      match Chaos.parse s with
      | Error e -> Alcotest.failf "roundtrip parse of %S failed: %s" s e
      | Ok plan' -> if plan' <> plan then Alcotest.failf "roundtrip changed %S" s)
    plans

let test_dsl_errors () =
  let expect_error s =
    match Chaos.parse s with
    | Ok _ -> Alcotest.failf "parse %S should fail" s
    | Error _ -> ()
  in
  expect_error "frobnicate(x=1)";
  expect_error "drop(p=banana)";
  expect_error "partition(at=0.1)";
  expect_error "crash(at=0.1)";
  expect_error "seedling=3"

let test_validate () =
  let bad_node =
    { Chaos.empty with events = [ Chaos.Crash { at = 0.1; restart_at = None; node = 9 } ] }
  in
  let bad_heal =
    {
      Chaos.empty with
      events = [ Chaos.Partition { at = 0.2; heal_at = 0.1; groups = [ [ 0 ]; [ 1 ] ] } ];
    }
  in
  let bad_prob = { Chaos.empty with rules = [ rule ~drop:1.5 () ] } in
  List.iter
    (fun plan ->
      match Chaos.validate ~nodes:4 plan with
      | Ok () -> Alcotest.fail "validate should reject the plan"
      | Error _ -> ())
    [ bad_node; bad_heal; bad_prob ];
  Alcotest.(check (result unit string))
    "good plan" (Ok ())
    (Chaos.validate ~nodes:4 (base_plan ~seed:1))

(* ---------- the network primitives the plans compile to ---------- *)

let net_config = Sss_net.Network.default_config

let make_net () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:1 in
  let net = Sss_net.Network.create sim rng ~nodes:2 ~config:net_config in
  (sim, net)

let test_crash_recover () =
  let sim, net = make_net () in
  let got = ref 0 in
  Sss_net.Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  Sss_net.Network.crash net 1;
  Alcotest.(check bool) "crashed" true (Sss_net.Network.is_crashed net 1);
  Sss_net.Network.send net ~src:0 ~dst:1 "lost";
  Sim.run sim;
  Alcotest.(check int) "dropped while crashed" 0 !got;
  Sss_net.Network.recover net 1;
  Alcotest.(check bool) "recovered" false (Sss_net.Network.is_crashed net 1);
  Sss_net.Network.send net ~src:0 ~dst:1 "ok";
  Sim.run sim;
  Alcotest.(check int) "delivered after recover" 1 !got

let test_perturb_duplicates_and_delay () =
  let sim, net = make_net () in
  let arrivals = ref [] in
  Sss_net.Network.set_handler net 1 (fun ~src:_ _ -> arrivals := Sim.now sim :: !arrivals);
  Sss_net.Network.set_perturb net
    (Some
       (fun ~src:_ ~dst:_ m ->
         if String.equal m "drop me" then
           { Sss_net.Network.no_fault with drop = true }
         else { Sss_net.Network.drop = false; extra_delay = 1e-3; duplicates = 1 }));
  Sss_net.Network.send net ~src:0 ~dst:1 "dup me";
  Sss_net.Network.send net ~src:0 ~dst:1 "drop me";
  Sim.run sim;
  Alcotest.(check int) "two copies" 2 (List.length !arrivals);
  Alcotest.(check int) "drop counted" 1 (Sss_net.Network.stats net).Sss_net.Network.dropped;
  List.iter
    (fun at -> if at < 1e-3 then Alcotest.failf "arrival at %g ignored extra delay" at)
    !arrivals;
  (* removing the hook restores the healthy path *)
  Sss_net.Network.set_perturb net None;
  Sss_net.Network.send net ~src:0 ~dst:1 "clean";
  Sim.run sim;
  Alcotest.(check int) "single copy" 3 (List.length !arrivals)

(* ---------- R1: the chaos library itself must be deterministic ---------- *)

let test_chaos_lint_clean () =
  (* cwd is test/ under dune runtest, the workspace root under dune exec *)
  let objs =
    List.find Sys.file_exists
      [ "../lib/chaos/.sss_chaos.objs/byte"; "_build/default/lib/chaos/.sss_chaos.objs/byte" ]
  in
  let cmts =
    Sys.readdir objs |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cmt")
    |> List.sort String.compare
    |> List.map (Filename.concat objs)
  in
  Alcotest.(check bool) "found sss_chaos .cmt files" true (cmts <> []);
  let findings = Typed_lint.check_cmts ~rules:[ Lint.R1 ] cmts in
  Alcotest.(check int) "no wall-clock or Random in sss_chaos" 0 (List.length findings)

let () =
  Alcotest.run "chaos"
    [
      ( "sweep",
        [
          Alcotest.test_case "20 seeds x 4 systems, checker-accepted" `Slow test_sweep;
          Alcotest.test_case "sss RO aborts zero mid-partition" `Slow test_sss_ro_abort_zero;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same plan+seed => identical trajectory" `Quick
            test_deterministic_replay;
          Alcotest.test_case "sss_chaos is R1 lint-clean" `Quick test_chaos_lint_clean;
        ] );
      ( "liveness",
        [ Alcotest.test_case "all nodes commit after heal" `Quick test_partition_heal_liveness ]
      );
      ( "dsl",
        [
          Alcotest.test_case "parse" `Quick test_dsl_parse;
          Alcotest.test_case "roundtrip" `Quick test_dsl_roundtrip;
          Alcotest.test_case "errors" `Quick test_dsl_errors;
          Alcotest.test_case "validate" `Quick test_validate;
        ] );
      ( "network",
        [
          Alcotest.test_case "crash/recover" `Quick test_crash_recover;
          Alcotest.test_case "perturb duplicates+delay" `Quick test_perturb_duplicates_and_delay;
        ] );
    ]
