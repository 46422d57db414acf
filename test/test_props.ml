(* Property-based battery for the substrate data structures: random
   operation sequences against reference models. *)

open Sss_sim
open Sss_data

let tx node local : Ids.txn = { node; local }

(* ---------- Ladder queue vs sorted-list model ----------

   The reference model is a list kept sorted by [(time, key)]; the queue
   must pop in exactly that order.  Pushes respect the simulator's
   no-past-events invariant (never before the last popped time), and the
   delay profile is chosen to cross every rung: sub-window delays land in
   calendar buckets, mid delays exercise the occupancy-bitmap scan, and
   far-future delays go through the overflow heap and its re-anchoring. *)

let eq_record out o = out := (Obj.obj o : float * int) :: !out

let eq_delay d =
  if d < 80 then float_of_int d *. 1e-7 (* in-window: calendar buckets *)
  else if d < 95 then 1e-4 +. (float_of_int (d - 80) *. 1e-5) (* bitmap scan *)
  else 0.01 +. (float_of_int (d - 95) *. 0.2) (* overflow rung *)

let equeue_mixed_ops =
  QCheck.Test.make ~name:"equeue mixed push/pop matches model" ~count:300
    QCheck.(list (option (int_bound 99)))
    (fun ops ->
      (* Some d = push at watermark + profile delay, None = pop *)
      let q = Sss_sim.Equeue.create () in
      let out = ref [] in
      let model = ref [] and watermark = ref 0.0 and next_key = ref 0 in
      let ok =
        List.for_all
          (fun op ->
            match op with
            | Some d ->
                let time = !watermark +. eq_delay d in
                let key = !next_key in
                incr next_key;
                Sss_sim.Equeue.push q ~time ~key (eq_record out) (Obj.repr (time, key));
                model := List.sort compare ((time, key) :: !model);
                true
            | None -> (
                match !model with
                | [] -> not (Sss_sim.Equeue.pop q)
                | ((t, _) as hd) :: rest ->
                    Sss_sim.Equeue.min_time q = t
                    && Sss_sim.Equeue.pop q
                    &&
                    (Sss_sim.Equeue.run_popped q;
                     model := rest;
                     watermark := t;
                     Sss_sim.Equeue.popped_time q = t
                     && (match !out with x :: _ -> x = hd | [] -> false))))
          ops
      in
      ok && Sss_sim.Equeue.length q = List.length !model)

let equeue_spill_bucket =
  (* Many events colliding in one calendar bucket must overflow into the
     spill heap without disturbing the (time, key) order. *)
  QCheck.Test.make ~name:"equeue same-bucket spill keeps order" ~count:50
    QCheck.(list_of_size (Gen.int_range 150 250) (int_bound 9))
    (fun ds ->
      let q = Sss_sim.Equeue.create () in
      let out = ref [] in
      let expect =
        List.mapi (fun i d -> (float_of_int d *. 1e-8, i)) ds |> List.sort compare
      in
      List.iteri
        (fun i d ->
          let time = float_of_int d *. 1e-8 in
          Sss_sim.Equeue.push q ~time ~key:i (eq_record out) (Obj.repr (time, i)))
        ds;
      while Sss_sim.Equeue.pop q do
        Sss_sim.Equeue.run_popped q
      done;
      List.rev !out = expect)

let equeue_arena_reuse =
  (* Fill/drain cycles on one queue: recycled slots must behave exactly
     like fresh ones, and the queue must return to empty every cycle. *)
  QCheck.Test.make ~name:"equeue slot recycling across cycles" ~count:50
    QCheck.(pair (int_range 2 5) (list_of_size (Gen.int_range 20 80) (int_bound 99)))
    (fun (cycles, ds) ->
      let q = Sss_sim.Equeue.create () in
      let base = ref 0.0 and key = ref 0 and ok = ref true in
      for _ = 1 to cycles do
        let out = ref [] in
        let expect =
          List.map
            (fun d ->
              let time = !base +. eq_delay d in
              let k = !key in
              incr key;
              Sss_sim.Equeue.push q ~time ~key:k (eq_record out) (Obj.repr (time, k));
              (time, k))
            ds
          |> List.sort compare
        in
        while Sss_sim.Equeue.pop q do
          Sss_sim.Equeue.run_popped q;
          base := Stdlib.max !base (Sss_sim.Equeue.popped_time q)
        done;
        if List.rev !out <> expect then ok := false;
        if not (Sss_sim.Equeue.is_empty q) then ok := false
      done;
      !ok)

(* ---------- Prng statistical sanity ---------- *)

let test_prng_chi_square_uniform () =
  let g = Prng.create ~seed:99 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Prng.int g 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = float_of_int n /. 10.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 buckets
  in
  (* 9 degrees of freedom: chi2 should be far below 30 for a healthy PRNG *)
  Alcotest.(check bool) (Printf.sprintf "chi2=%.1f" chi2) true (chi2 < 30.0)

let test_prng_copy_independent () =
  let a = Prng.create ~seed:5 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  let xa = Prng.next_int64 a in
  let xb = Prng.next_int64 b in
  Alcotest.(check int64) "copy continues identically" xa xb

let test_prng_shuffle_permutes () =
  let g = Prng.create ~seed:3 in
  let arr = Array.init 20 (fun i -> i) in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 20 (fun i -> i)) sorted;
  Alcotest.(check bool) "actually shuffled" true (arr <> Array.init 20 (fun i -> i))

(* ---------- Vclock algebra ---------- *)

let vclock_partial_order =
  let vec = QCheck.(list_of_size (Gen.return 5) (int_bound 50)) in
  QCheck.Test.make ~name:"vclock leq is a partial order" ~count:300
    (QCheck.triple vec vec vec)
    (fun (a, b, c) ->
      let va = Vclock.of_array (Array.of_list a) in
      let vb = Vclock.of_array (Array.of_list b) in
      let vc = Vclock.of_array (Array.of_list c) in
      (* reflexive *)
      Vclock.leq va va
      (* antisymmetric *)
      && ((not (Vclock.leq va vb && Vclock.leq vb va)) || Vclock.equal va vb)
      (* transitive *)
      && ((not (Vclock.leq va vb && Vclock.leq vb vc)) || Vclock.leq va vc))

let vclock_concurrent_symmetric =
  let vec = QCheck.(list_of_size (Gen.return 4) (int_bound 20)) in
  QCheck.Test.make ~name:"vclock concurrency is symmetric and irreflexive" ~count:300
    (QCheck.pair vec vec)
    (fun (a, b) ->
      let va = Vclock.of_array (Array.of_list a) in
      let vb = Vclock.of_array (Array.of_list b) in
      Vclock.concurrent va vb = Vclock.concurrent vb va && not (Vclock.concurrent va va))

(* ---------- Nlog: visible_max against a brute-force model ---------- *)

let nlog_visible_max_model =
  QCheck.Test.make ~name:"nlog visible_max matches brute force" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 30) (pair (int_bound 20) (int_bound 20)))
        (pair (int_bound 25) small_nat))
    (fun (entries, (bound1, cutoff_raw)) ->
      let nodes = 3 in
      let l = Nlog.create ~nodes ~node:0 in
      (* entries applied in increasing local clock; other coords arbitrary *)
      let all = ref [ Array.make nodes 0 ] in
      List.iteri
        (fun i (b, c) ->
          let vc = [| i + 1; b; c |] in
          all := vc :: !all;
          Nlog.add l ~txn:(tx 0 (i + 1)) ~vc:(Vclock.of_array vc) ~ws:[])
        entries;
      let has_read = [| false; true; false |] in
      let bound = Vclock.of_array [| max_int; bound1; max_int |] in
      let cutoff = 1 + (cutoff_raw mod (List.length entries + 2)) in
      let got = Nlog.visible_max l ~has_read ~bound ~cutoff in
      (* brute force *)
      let acc = Array.make nodes 0 in
      List.iter
        (fun vc ->
          if vc.(0) < cutoff && vc.(1) <= bound1 then
            for w = 0 to nodes - 1 do
              acc.(w) <- max acc.(w) vc.(w)
            done)
        !all;
      Vclock.equal got (Vclock.of_array acc))

let nlog_prune_preserves_views =
  QCheck.Test.make ~name:"nlog prune never shrinks unconstrained visibility" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 1 30) (int_bound 20)) (int_bound 20))
    (fun (others, wm1) ->
      let nodes = 2 in
      let l = Nlog.create ~nodes ~node:0 in
      List.iteri
        (fun i b -> Nlog.add l ~txn:(tx 0 (i + 1)) ~vc:(Vclock.of_array [| i + 1; b |]) ~ws:[])
        others;
      let before =
        Nlog.visible_max l ~has_read:[| false; false |] ~bound:(Vclock.zero nodes)
          ~cutoff:max_int
      in
      ignore
        (Nlog.prune_covered l ~watermark:(Vclock.of_array [| List.length others / 2; wm1 |])
          : int);
      let after =
        Nlog.visible_max l ~has_read:[| false; false |] ~bound:(Vclock.zero nodes)
          ~cutoff:max_int
      in
      Vclock.equal before after)

(* ---------- Commitq: random puts/updates/removes keep order ---------- *)

let commitq_ordered =
  QCheck.Test.make ~name:"commitq entries always sorted by local clock" ~count:200
    QCheck.(list (pair (int_bound 20) (int_bound 100)))
    (fun ops ->
      let q = Commitq.create ~node:0 in
      List.iteri
        (fun i (who, v) ->
          let txn = tx who i in
          if not (Commitq.mem q txn) then
            Commitq.put q ~txn ~vc:(Vclock.of_array [| v |]);
          if i mod 3 = 0 then
            Commitq.update q ~txn ~vc:(Vclock.of_array [| v + 5 |]);
          if i mod 7 = 0 then Commitq.remove q txn)
        ops;
      let rec sorted = function
        | a :: (b :: _ as rest) ->
            Vclock.get a.Commitq.vc 0 <= Vclock.get b.Commitq.vc 0 && sorted rest
        | _ -> true
      in
      sorted (Commitq.to_list q))

(* ---------- Locks: random acquire/release keeps exclusion ---------- *)

let test_locks_exclusion_invariant () =
  let sim = Sim.create () in
  let t = Locks.create sim in
  let g = Prng.create ~seed:17 in
  let violations = ref 0 in
  for i = 1 to 30 do
    Sim.spawn sim (fun () ->
        let me = tx 0 i in
        for _ = 1 to 20 do
          let k = Prng.int g 4 in
          let mode = if Prng.bool g then Locks.Exclusive else Locks.Shared in
          if Locks.acquire t me mode k ~timeout:0.05 then begin
            (* invariant: exclusive => sole owner *)
            if Locks.holds_exclusive t me k then begin
              for other = 1 to 30 do
                if other <> i && (Locks.holds_exclusive t (tx 0 other) k
                                  || Locks.holds_shared t (tx 0 other) k)
                then incr violations
              done
            end;
            Sim.sleep sim (Prng.float g 0.001);
            Locks.release_txn t me
          end
        done)
  done;
  Sim.run sim;
  Alcotest.(check int) "no exclusion violations" 0 !violations;
  Alcotest.(check int) "all released" 0 (Locks.holder_count t)

(* ---------- Replication invariants ---------- *)

let replication_props =
  QCheck.Test.make ~name:"replication: degree, membership, determinism" ~count:100
    QCheck.(triple (int_range 1 12) (int_range 1 4) (int_range 1 300))
    (fun (nodes, degree_raw, keys) ->
      let degree = 1 + (degree_raw - 1) mod nodes in
      let r1 = Replication.create ~nodes ~degree ~total_keys:keys in
      let r2 = Replication.create ~nodes ~degree ~total_keys:keys in
      let ok = ref true in
      for k = 0 to keys - 1 do
        let reps = Replication.replicas r1 k in
        if List.length (List.sort_uniq Int.compare reps) <> degree then ok := false;
        if Replication.replicas r2 k <> reps then ok := false;
        List.iter (fun n -> if not (Replication.is_replica r1 n k) then ok := false) reps
      done;
      !ok)

(* ---------- Squeue model ---------- *)

let squeue_remove_model =
  QCheck.Test.make ~name:"squeue removal leaves exactly other txns" ~count:200
    QCheck.(list (triple (int_bound 6) (int_bound 30) bool))
    (fun ops ->
      let q = Squeue.create () in
      List.iter
        (fun (who, sid, prop) ->
          if prop then Squeue.insert_propagated q ~txn:(tx who 1) ~sid
          else Squeue.insert_read q ~txn:(tx who 1) ~sid)
        ops;
      (* remove txn 0, then nothing of txn 0 remains and others all do *)
      ignore (Squeue.remove q (tx 0 1));
      let remaining = Squeue.readers q in
      List.for_all (fun e -> e.Squeue.txn.Ids.node <> 0) remaining
      && List.for_all
           (fun (who, sid, _) ->
             who = 0 || List.exists (fun e -> e.Squeue.txn = tx who 1 && e.Squeue.sid = sid) remaining)
           ops)

let () =
  Alcotest.run "props"
    [
      ( "equeue+prng",
        [
          QCheck_alcotest.to_alcotest equeue_mixed_ops;
          QCheck_alcotest.to_alcotest equeue_spill_bucket;
          QCheck_alcotest.to_alcotest equeue_arena_reuse;
          Alcotest.test_case "chi-square uniformity" `Quick test_prng_chi_square_uniform;
          Alcotest.test_case "copy independence" `Quick test_prng_copy_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        ] );
      ( "vclock",
        [
          QCheck_alcotest.to_alcotest vclock_partial_order;
          QCheck_alcotest.to_alcotest vclock_concurrent_symmetric;
        ] );
      ( "nlog",
        [
          QCheck_alcotest.to_alcotest nlog_visible_max_model;
          QCheck_alcotest.to_alcotest nlog_prune_preserves_views;
        ] );
      ("commitq", [ QCheck_alcotest.to_alcotest commitq_ordered ]);
      ("locks", [ Alcotest.test_case "exclusion invariant" `Quick test_locks_exclusion_invariant ]);
      ("replication", [ QCheck_alcotest.to_alcotest replication_props ]);
      ("squeue", [ QCheck_alcotest.to_alcotest squeue_remove_model ]);
    ]
