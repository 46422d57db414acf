(* Properties for the hot-path optimizations: the sharing/in-place Vclock
   operations against a naive reference, the Stampset behind the commit
   queue and the parked index against a sorted-list oracle, the
   single-pass Squeue.remove against a filter model, and run-to-run
   determinism of the full SSS cluster on the network's inline dispatch
   path. *)

open Sss_data
open Sss_kv

let vc l = Vclock.of_array (Array.of_list l)

let to_l v = Array.to_list (Vclock.to_array v)

(* ---------- Vclock vs naive reference ---------- *)

let naive_max = List.map2 (fun x y -> if x < y then y else x)

let naive_leq xs ys = List.for_all2 ( <= ) xs ys

let vec = QCheck.(list_of_size (Gen.return 5) (int_bound 50))

let vpair = QCheck.pair vec vec

let vclock_max_matches_reference =
  QCheck.Test.make ~name:"vclock max matches naive reference" ~count:500 vpair
    (fun (xs, ys) ->
      let a = vc xs and b = vc ys in
      let m = Vclock.max a b in
      (* correct result, and the sharing optimization must never mutate its
         arguments *)
      to_l m = naive_max xs ys && to_l a = xs && to_l b = ys)

let vclock_max_into_matches_reference =
  QCheck.Test.make ~name:"vclock max_into matches naive reference" ~count:500 vpair
    (fun (xs, ys) ->
      let d = vc xs and s = vc ys in
      Vclock.max_into d s;
      to_l d = naive_max xs ys && to_l s = ys)

let vclock_orders_match_reference =
  QCheck.Test.make ~name:"vclock leq/equal/compare match reference" ~count:500 vpair
    (fun (xs, ys) ->
      let a = vc xs and b = vc ys in
      Vclock.leq a b = naive_leq xs ys
      && Vclock.equal a b = (xs = ys)
      && compare (Vclock.compare a b) 0 = compare (Stdlib.compare xs ys) 0
      && Vclock.compare a a = 0)

let vclock_set_into_and_copy =
  QCheck.Test.make ~name:"vclock set_into mutates only the copy" ~count:500
    QCheck.(triple vec (int_bound 4) (int_bound 100))
    (fun (xs, i, v) ->
      let a = vc xs in
      let c = Vclock.copy a in
      Vclock.set_into c i v;
      (* the copy took the write, the original did not *)
      Vclock.get c i = v
      && to_l a = xs
      && to_l c = List.mapi (fun j x -> if j = i then v else x) xs)

let test_vclock_unsafe_of_array_shares () =
  let arr = [| 1; 2; 3 |] in
  let v = Vclock.unsafe_of_array arr in
  arr.(1) <- 9;
  Alcotest.(check int) "adopted, not copied" 9 (Vclock.get v 1)

let test_vclock_blit () =
  let src = vc [ 4; 5; 6 ] in
  let dst = vc [ 0; 0; 0 ] in
  Vclock.blit ~src ~dst;
  Alcotest.(check (list int)) "blit copies all entries" [ 4; 5; 6 ] (to_l dst);
  Vclock.set_into dst 0 7;
  Alcotest.(check int) "blit did not alias" 4 (Vclock.get src 0)

(* ---------- Stampset vs sorted-list oracle ---------- *)

(* The commit queue and the parked index: (stamp, txn) pairs, at most one
   per transaction, entered, re-keyed (a Decide moving a queued entry) and
   removed in any order.  Stamps come from a small range so that equal
   stamps, ordered by transaction, are common. *)

let model_order (s, a) (s', b) =
  let c = Int.compare s s' in
  if c <> 0 then c else Int.compare (Ids.pack a) (Ids.pack b)

let probes = [ -1; 0; 1; 3; 5; 6 ]

let stampset_matches_oracle =
  QCheck.Test.make ~name:"stampset matches sorted-list oracle" ~count:500
    QCheck.(list (triple (int_bound 2) (int_bound 5) (int_bound 7)))
    (fun ops ->
      let s = Stampset.create () in
      let model = ref [] in
      let find txn = List.find_opt (fun (_, t) -> Ids.equal_txn t txn) !model in
      let without txn = List.filter (fun (_, t) -> not (Ids.equal_txn t txn)) !model in
      let set l = model := List.sort model_order l in
      List.for_all
        (fun (op, x, i) ->
          let txn : Ids.txn = { node = i mod 3; local = i / 3 } in
          let op_ok =
            match (op, find txn) with
            | 0, None ->
                Stampset.add s x txn;
                set ((x, txn) :: !model);
                true
            | 1, Some (old, _) ->
                (* re-key *)
                let removed = Stampset.remove s old txn in
                Stampset.add s x txn;
                set ((x, txn) :: without txn);
                removed
            | 2, found ->
                (* remove at [x]: present only if the pair is *)
                let present = match found with Some (y, _) -> y = x | None -> false in
                if present then set (without txn);
                Stampset.remove s x txn = present
            | _ -> true
          in
          let l = Stampset.to_list s in
          let rec sorted = function
            | a :: (b :: _ as rest) -> model_order a b < 0 && sorted rest
            | _ -> true
          in
          let stamps = List.map fst !model in
          op_ok && sorted l
          && List.equal (fun (x, a) (y, b) -> x = y && Ids.equal_txn a b) l !model
          && Stampset.length s = List.length !model
          && Stampset.min_stamp s = (match !model with [] -> None | (h, _) :: _ -> Some h)
          && Option.equal Ids.equal_txn (Stampset.min_txn s)
               (match !model with [] -> None | (_, t) :: _ -> Some t)
          && List.for_all
               (fun p ->
                 Stampset.first_above s p = List.find_opt (fun y -> y > p) stamps
                 && Stampset.exists_leq s p = List.exists (fun y -> y <= p) stamps
                 && Stampset.exists_below s p = List.exists (fun y -> y < p) stamps
                 && Stampset.exists_above s p (fun t -> t.Ids.node = 1)
                    = List.exists (fun (y, t) -> y > p && t.Ids.node = 1) !model)
               probes)
        ops)

(* A commit queue drained after a burst gives its capacity back: 1,000
   pairs in, all out (odd stamps first, so removals hit the middle too),
   and the set weighs what a fresh one does, give or take a few words. *)
let test_stampset_drained_shrinks () =
  let s = Stampset.create () in
  let txn i : Ids.txn = { node = i mod 3; local = i } in
  for i = 0 to 999 do Stampset.add s i (txn i) done;
  List.iter
    (fun odd ->
      for i = 0 to 999 do
        if i mod 2 = odd then Alcotest.(check bool) "removed" true (Stampset.remove s i (txn i))
      done;
      if odd = 1 then
        Alcotest.(check (list int)) "the even stamps remain, in order"
          (List.init 500 (fun i -> 2 * i))
          (List.map fst (Stampset.to_list s)))
    [ 1; 0 ];
  Alcotest.(check int) "drained" 0 (Stampset.length s);
  let fresh = Obj.reachable_words (Obj.repr (Stampset.create ())) in
  let drained = Obj.reachable_words (Obj.repr s) in
  Alcotest.(check bool)
    (Printf.sprintf "drained %d words, fresh %d" drained fresh)
    true (drained <= fresh + 4)

(* ---------- Squeue.remove vs filter model ---------- *)

let squeue_remove_matches_model =
  (* arbitrary inserts, then one removal: it must report presence, drop
     exactly the victim's entries, and keep everything else in order *)
  QCheck.Test.make ~name:"squeue remove matches filter model" ~count:300
    QCheck.(
      pair
        (list (quad bool (int_bound 2) (int_bound 3) (int_bound 20)))
        (pair (int_bound 2) (int_bound 3)))
    (fun (inserts, (vn, vl)) ->
      let q = Squeue.create () in
      List.iter
        (fun (propagated, node, local, sid) ->
          let txn : Ids.txn = { node; local } in
          if propagated then Squeue.insert_propagated q ~txn ~sid
          else Squeue.insert_read q ~txn ~sid)
        inserts;
      let victim : Ids.txn = { node = vn; local = vl } in
      let before = Squeue.readers q in
      let was_present = Squeue.mem q victim in
      let removed = Squeue.remove q victim in
      let keep (e : Squeue.entry) = not (Ids.equal_txn e.txn victim) in
      removed = was_present
      && (not (Squeue.mem q victim))
      && Squeue.readers q = List.filter keep before)

(* ---------- inline-dispatch determinism ---------- *)

module Spec = Sss_experiments.Spec

(* One seeded workload on a fresh cluster.  Everything observable is
   returned: the spec line, committed/aborted counts, simulator event
   count, network telemetry, and the full recorded history (timestamps
   included). *)
let run_seeded () =
  let spec =
    Spec.make ~clients:4 ~warmup:0.01 ~duration:0.05 Sss
      { Config.default with nodes = 3; replication_degree = 2; total_keys = 16; seed = 23 }
  in
  let r = Spec.run spec in
  ( Spec.to_string spec,
    r.result.committed,
    r.result.aborted,
    r.des_events,
    r.network,
    Sss_consistency.History.events r.history )

(* Inline dispatch and the cancellable transport timers must not let
   anything but the seed steer an execution: two runs coincide exactly. *)
let test_inline_dispatch_replays () =
  let line, c1, a1, e1, s1, h1 = run_seeded () in
  let _, c2, a2, e2, s2, h2 = run_seeded () in
  let named what = what ^ " -- " ^ line in
  Alcotest.(check int) (named "committed") c1 c2;
  Alcotest.(check int) (named "aborted") a1 a2;
  Alcotest.(check int) (named "events processed") e1 e2;
  Alcotest.(check bool) (named "network stats") true (s1 = s2);
  Alcotest.(check int) (named "history length") (List.length h1) (List.length h2);
  Alcotest.(check bool) (named "history byte-identical") true (h1 = h2);
  Alcotest.(check bool) (named "made progress") true (c1 > 50)

(* The healthy plain-transport path — no fault tolerance, no durability,
   history recorded — of each system at a fixed seed, pinned by its event
   count, committed count and history MD5.  The goldens cover this path
   only through figure totals (no history) and, for ROCOCO, not at all. *)
let healthy_pins =
  Sss_experiments.Store.
    [
      (Sss, 155373, 1510, "4a671b596f5d94ffbe05d2ee6d039d07");
      (Twopc, 141141, 798, "234b3bceed921314bf725884b8438473");
      (Walter, 267423, 4331, "bcd8d7e1f675afa7afcc96e485aeecf1");
      (Rococo, 146719, 2808, "a73ac5b44a4379ffc6575ceadee6eb02");
    ]

let test_healthy_path_pinned () =
  let module Store = Sss_experiments.Store in
  List.iter
    (fun (system, events, committed, md5) ->
      let spec =
        Spec.make ~clients:4 ~duration:0.04 system
          { Config.default with nodes = 4; replication_degree = Store.paper_degree system;
            total_keys = 24; seed = 5 }
      in
      let r = Spec.run spec in
      let name = Spec.to_string spec in
      Alcotest.(check int) (name ^ ": des_events") events r.des_events;
      Alcotest.(check int) (name ^ ": committed") committed r.result.committed;
      Alcotest.(check string) (name ^ ": history md5") md5
        (Sss_experiments.Experiments.history_md5 r.history))
    healthy_pins

let () =
  Alcotest.run "hotpath"
    [
      ( "vclock",
        [
          QCheck_alcotest.to_alcotest vclock_max_matches_reference;
          QCheck_alcotest.to_alcotest vclock_max_into_matches_reference;
          QCheck_alcotest.to_alcotest vclock_orders_match_reference;
          QCheck_alcotest.to_alcotest vclock_set_into_and_copy;
          Alcotest.test_case "unsafe_of_array shares" `Quick test_vclock_unsafe_of_array_shares;
          Alcotest.test_case "blit" `Quick test_vclock_blit;
        ] );
      ( "stampset",
        [
          QCheck_alcotest.to_alcotest stampset_matches_oracle;
          Alcotest.test_case "a drained set gives back its capacity" `Quick
            test_stampset_drained_shrinks;
        ] );
      ("squeue", [ QCheck_alcotest.to_alcotest squeue_remove_matches_model ]);
      ( "determinism",
        [
          Alcotest.test_case "inline dispatch replays identically" `Quick
            test_inline_dispatch_replays;
          Alcotest.test_case "healthy path pinned" `Quick test_healthy_path_pinned;
        ] );
    ]
