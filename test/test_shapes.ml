(* Shape regression tests: the paper's qualitative evaluation claims,
   pinned as assertions at a reduced (deterministic) scale.  If a protocol
   change breaks one of the reproduced effects, this suite says so. *)

open Sss_experiments.Experiments

(* A 6-node, 600-key cluster at [degree] running [system] at read-only
   ratio [ro] with [ro_ops] reads per read-only transaction. *)
let spec ?(nodes = 6) ?(keys = 600) ?(degree = 2) ?(ro_ops = 2) ?(strict = false) system ro =
  let s = base_spec Full in
  let config = { s.config with nodes; total_keys = keys; replication_degree = degree } in
  {
    s with
    system;
    config = { config with strict_order = strict };
    profile = { s.profile with read_only_ratio = ro; ro_ops };
    load = { s.load with clients_per_node = 6; warmup = 0.008; duration = 0.03 };
  }

let thr p = (run p).throughput

(* Fig. 3: at high read ratios SSS clearly outperforms the 2PC baseline. *)
let test_sss_beats_2pc_read_dominated () =
  let sss = thr (spec Sss 0.8) in
  let tp = thr (spec Twopc 0.8) in
  Alcotest.(check bool)
    (Printf.sprintf "SSS %.0f > 1.3x 2PC %.0f at 80%% RO" sss tp)
    true
    (sss > 1.3 *. tp)

(* Fig. 3: Walter (weaker PSI) stays at or above SSS at 80% RO, but the gap
   is bounded (the paper converges to ~1.1x). *)
let test_walter_gap_bounded () =
  let sss = thr (spec Sss 0.8) in
  let walter = thr (spec Walter 0.8) in
  Alcotest.(check bool)
    (Printf.sprintf "Walter %.0f within [0.9x, 1.8x] of SSS %.0f" walter sss)
    true
    (walter > 0.9 *. sss && walter < 1.8 *. sss)

(* Fig. 3: 2PC is competitive at 20% read-only (within 35% of SSS). *)
let test_2pc_competitive_write_heavy () =
  let sss = thr (spec Sss 0.2) in
  let tp = thr (spec Twopc 0.2) in
  let ratio = sss /. tp in
  Alcotest.(check bool)
    (Printf.sprintf "SSS/2PC at 20%% RO = %.2f (competitive)" ratio)
    true
    (ratio > 0.65 && ratio < 1.55)

(* Fig. 6: ROCOCO ahead on write-heavy, SSS ahead on read-heavy. *)
let test_rococo_crossover () =
  let p ro sys = spec ~degree:1 sys ro in
  let write_heavy = thr (p 0.2 Sss) /. thr (p 0.2 Rococo) in
  let read_heavy = thr (p 0.8 Sss) /. thr (p 0.8 Rococo) in
  Alcotest.(check bool)
    (Printf.sprintf "SSS/ROCOCO %.2f at 20%% < %.2f at 80%%" write_heavy read_heavy)
    true
    (write_heavy < 1.0 && read_heavy > 1.2)

(* Fig. 8: the SSS/ROCOCO speedup grows with the read-only size. *)
let test_speedup_grows_with_ro_size () =
  let p ro_ops sys = spec ~degree:1 ~ro_ops sys 0.8 in
  let s2 = thr (p 2 Sss) /. thr (p 2 Rococo) in
  let s8 = thr (p 8 Sss) /. thr (p 8 Rococo) in
  Alcotest.(check bool)
    (Printf.sprintf "speedup grows: %.2f (2 reads) -> %.2f (8 reads)" s2 s8)
    true
    (s8 > s2)

(* Fig. 5 / in-text: the snapshot-queue wait is a meaningful but bounded
   fraction of update latency (the paper reports ~30%). *)
let test_wait_fraction_bounded () =
  let o = run (spec Sss 0.5) in
  match (o.sss_internal, o.sss_wait) with
  | Some internal, Some wait ->
      let frac = wait /. (internal +. wait) in
      Alcotest.(check bool)
        (Printf.sprintf "wait fraction %.0f%% within [10%%, 70%%]" (frac *. 100.))
        true
        (frac > 0.10 && frac < 0.70)
  | _ -> Alcotest.fail "no latency breakdown collected"

(* In-text: abort rate rises with node count and falls with key-space size. *)
let test_abort_rate_shape () =
  let ar nodes keys =
    (run (spec ~nodes ~keys Sss 0.2)).abort_rate
  in
  let small_cluster = ar 3 600 in
  let big_cluster = ar 6 600 in
  let big_keys = ar 6 1200 in
  Alcotest.(check bool)
    (Printf.sprintf "abort rate grows with nodes (%.3f -> %.3f)" small_cluster big_cluster)
    true
    (big_cluster > small_cluster);
  Alcotest.(check bool)
    (Printf.sprintf "and shrinks with keys (%.3f -> %.3f)" big_cluster big_keys)
    true
    (big_keys < big_cluster)

(* Hardened mode preserves every shape above at the standard profile within
   a modest overhead. *)
let test_hardening_overhead_bounded_at_standard_profile () =
  let paper = thr (spec Sss 0.8) in
  let hard = thr (spec ~strict:true Sss 0.8) in
  Alcotest.(check bool)
    (Printf.sprintf "hardened %.0f >= 60%% of paper %.0f" hard paper)
    true
    (hard >= 0.6 *. paper)

(* Every figure's smoke-scale text, and the recovery fingerprint, pinned
   byte-for-byte.  The figure's text and the run's simulator totals are a
   complete fingerprint of the DES trajectory: an engine change that
   reorders even two equal-time events shifts commit counts and shows up
   here.  [saturation] covers the open-loop engine and online GC;
   [recovery] the crash, recovery and lossy-transport paths of all four
   systems.  Intentional trajectory changes (new event types, protocol
   edits) must regenerate the fixture:

     dune exec bin/golden.exe -- NAME > test/golden/NAME_smoke.txt *)
let read_fixture fixture_name =
  (* cwd is test/ under [dune runtest], the repo root under [dune exec] *)
  let fixture =
    if Sys.file_exists ("golden/" ^ fixture_name) then "golden/" ^ fixture_name
    else "test/golden/" ^ fixture_name
  in
  In_channel.with_open_text fixture In_channel.input_all

let golden_case name =
  Alcotest.test_case (name ^ " smoke golden trajectory") `Slow (fun () ->
      Alcotest.(check (option string))
        (name ^ " smoke trajectory")
        (Some (read_fixture (name ^ "_smoke.txt")))
        (golden name))

let () =
  Alcotest.run "shapes"
    [
      ( "paper-claims",
        [
          Alcotest.test_case "SSS > 2PC read-dominated" `Slow test_sss_beats_2pc_read_dominated;
          Alcotest.test_case "Walter gap bounded" `Slow test_walter_gap_bounded;
          Alcotest.test_case "2PC competitive write-heavy" `Slow
            test_2pc_competitive_write_heavy;
          Alcotest.test_case "ROCOCO crossover" `Slow test_rococo_crossover;
          Alcotest.test_case "speedup grows with ro size" `Slow
            test_speedup_grows_with_ro_size;
          Alcotest.test_case "wait fraction bounded" `Slow test_wait_fraction_bounded;
          Alcotest.test_case "abort-rate shape" `Slow test_abort_rate_shape;
          Alcotest.test_case "hardening overhead bounded" `Slow
            test_hardening_overhead_bounded_at_standard_profile;
        ]
        @ List.map golden_case
            [ "fig3"; "saturation"; "recovery"; "fig4a"; "fig4b"; "fig5"; "fig6"; "fig7";
              "fig8"; "abort-rate"; "ablation"; "skewed"; "durability" ] );
    ]
