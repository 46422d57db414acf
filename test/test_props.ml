(* Property-based battery for the substrate data structures: random
   operation sequences against reference models. *)

open Sss_sim
open Sss_data

let tx node local : Ids.txn = { node; local }

(* ---------- Ladder queue vs sorted-list model ----------

   The reference model is a list kept sorted by [(time, key)]; the queue
   must pop in exactly that order.  Pushes respect the simulator's
   no-past-events invariant (never before the last popped time), and the
   delay profile is chosen to cross both rungs: sub-window delays land in
   calendar buckets, mid delays make the cursor probe across empty
   buckets, and far-future delays go through the overflow heap and its
   re-anchoring. *)

let eq_record out o = out := (Obj.obj o : float * int) :: !out

let eq_insert x l =
  let rec go = function [] -> [ x ] | y :: tl as l -> if compare x y <= 0 then x :: l else y :: go tl in
  go l

let eq_delay d =
  if d < 80 then float_of_int d *. 1e-7 (* in-window: calendar buckets *)
  else if d < 95 then 1e-4 +. (float_of_int (d - 80) *. 1e-5) (* cursor probe *)
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

let equeue_same_instant_burst =
  (* A burst piling onto three instants of one bucket (a broadcast storm
     landing on one microsecond), with more same-instant events pushed
     while it drains: the current bucket's scan and its cached minimum must
     keep the (time, key) order throughout. *)
  QCheck.Test.make ~name:"equeue same-instant burst keeps order" ~count:50
    QCheck.(pair (list_of_size (Gen.int_range 150 250) (int_bound 2)) (list (int_bound 3)))
    (fun (ds, extra) ->
      let q = Sss_sim.Equeue.create () in
      let out = ref [] and model = ref [] and next_key = ref 0 in
      let push time =
        let key = !next_key in
        incr next_key;
        Sss_sim.Equeue.push q ~time ~key (eq_record out) (Obj.repr (time, key));
        model := eq_insert (time, key) !model
      in
      List.iter (fun d -> push (float_of_int d *. 1e-8)) ds;
      let extra = ref extra and ok = ref true in
      while Sss_sim.Equeue.pop q do
        Sss_sim.Equeue.run_popped q;
        (match (!model, !out) with
        | hd :: rest, x :: _ when x = hd -> model := rest
        | _ -> ok := false);
        (* peek first, so the pushes below meet a cached minimum *)
        ignore (Sss_sim.Equeue.min_time q : float);
        match !extra with
        | n :: rest ->
            extra := rest;
            for _ = 1 to n do
              push (Sss_sim.Equeue.popped_time q)
            done
        | [] -> ()
      done;
      !ok && !model = [])

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

(* The same model with random [filter] calls.  Ops: 0-99 push at a profile
   delay; 100-104 a burst of 80 pushes at the watermark, which piles onto
   the current bucket; 105-117 pop; 118-129 filter out the keys divisible
   by 2..13.  Survivors must pop in sorted-model order. *)
let eq_keep m _fn arg = snd (Obj.obj arg : float * int) mod m <> 0

let equeue_filter_ops =
  QCheck.Test.make ~name:"equeue push/pop/filter matches model" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 400) (int_bound 129))
    (fun ops ->
      let q = Sss_sim.Equeue.create () in
      let out = ref [] in
      let model = ref [] and watermark = ref 0.0 and next_key = ref 0 in
      let push time =
        let key = !next_key in
        incr next_key;
        Sss_sim.Equeue.push q ~time ~key (eq_record out) (Obj.repr (time, key));
        model := eq_insert (time, key) !model
      in
      let pop () =
        match !model with
        | [] -> not (Sss_sim.Equeue.pop q)
        | ((t, _) as hd) :: rest ->
            Sss_sim.Equeue.min_time q = t
            && Sss_sim.Equeue.pop q
            &&
            (Sss_sim.Equeue.run_popped q;
             model := rest;
             watermark := t;
             Sss_sim.Equeue.popped_time q = t && match !out with x :: _ -> x = hd | [] -> false)
      in
      let step op =
        if op < 100 then (push (!watermark +. eq_delay op); true)
        else if op < 105 then begin
          for _ = 1 to 80 do
            push !watermark
          done;
          true
        end
        else if op < 118 then pop ()
        else begin
          let m = op - 116 in
          Sss_sim.Equeue.filter q (eq_keep m);
          model := List.filter (fun (_, k) -> k mod m <> 0) !model;
          true
        end
      in
      let ok = List.for_all (fun op -> step op && Sss_sim.Equeue.length q = List.length !model) ops in
      let rec drain () = !model = [] || (pop () && drain ()) in
      ok && drain () && not (Sss_sim.Equeue.pop q))

(* A filter between draining the window and the re-anchor it forces: the
   overflow rung survivors must seed the new window in order, and a filter
   that empties the queue leaves it empty. *)
let test_equeue_filter_before_re_anchor () =
  let q = Sss_sim.Equeue.create () in
  let out = ref [] in
  let push time key = Sss_sim.Equeue.push q ~time ~key (eq_record out) (Obj.repr (time, key)) in
  push 1e-6 0;
  List.iteri (fun i t -> push t (i + 1)) [ 0.5; 0.2; 0.2; 0.7; 0.3; 0.9 ];
  Alcotest.(check bool) "popped the window event" true (Sss_sim.Equeue.pop q);
  Sss_sim.Equeue.run_popped q;
  (* window drained; only the overflow rung holds events *)
  Sss_sim.Equeue.filter q (eq_keep 2);
  Alcotest.(check int) "odd keys survive" 3 (Sss_sim.Equeue.length q);
  while Sss_sim.Equeue.pop q do
    Sss_sim.Equeue.run_popped q
  done;
  Alcotest.(check (list (pair (float 0.0) int)))
    "survivors in order"
    [ (1e-6, 0); (0.2, 3); (0.3, 5); (0.5, 1) ]
    (List.rev !out);
  push 1.0 7;
  push 1.5 8;
  Sss_sim.Equeue.filter q (fun _ _ -> false);
  Alcotest.(check bool) "filtered to empty" true (Sss_sim.Equeue.is_empty q);
  Alcotest.(check bool) "nothing to pop" false (Sss_sim.Equeue.pop q)

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

(* ---------- Nlog: the columnar log against a list model ----------

   The model keeps every retained entry in a list with the log's three
   summary clocks: [seed] (what the prefix maxima start from: the dropped
   prefix's maximum after a covered prune, kept by a restore), [floor]
   (what constrained queries start from) and the committed maximum.  Runs
   of 300-500 operations append 225-375 entries on average, three to six
   64-entry blocks, so queries cross block and 16-entry row boundaries,
   before and after prunes and checkpoint round trips. *)

type nlog_model = {
  mutable es : (Ids.txn * int array * int list) list;  (* oldest first *)
  mutable seed : int array;
  mutable floor : int array;
  mutable top : int array;
}

let nodes3 = 3

let vmax a b = Array.init nodes3 (fun w -> max a.(w) b.(w))

let nlog_query m ~has_read ~bound ~cutoff =
  let arr = Array.of_list m.es in
  let top =
    if cutoff = max_int then Array.length arr - 1
    else
      Array.fold_left (fun acc (i, (_, vc, _)) -> if vc.(0) < cutoff then i else acc) (-1)
        (Array.mapi (fun i e -> (i, e)) arr)
  in
  let upto = Array.to_list (Array.sub arr 0 (top + 1)) in
  if top < 0 then m.floor
  else if not (Array.exists Fun.id has_read) then
    List.fold_left (fun acc (_, vc, _) -> vmax acc vc) m.seed upto
  else
    List.fold_left
      (fun acc (_, vc, _) ->
        if Array.for_all Fun.id (Array.mapi (fun w r -> (not r) || vc.(w) <= bound.(w)) has_read)
        then vmax acc vc
        else acc)
      m.floor upto

let nlog_columnar_model =
  QCheck.Test.make ~name:"nlog columnar log matches list model" ~count:40
    QCheck.(
      list_of_size (Gen.int_range 300 500)
        (quad (int_bound 11) (int_bound 20) (int_bound 20) (int_bound 1000)))
    (fun ops ->
      let zero = Array.make nodes3 0 in
      let l = ref (Nlog.create ~nodes:nodes3 ~node:0) in
      let m = { es = [ (Ids.genesis, zero, []) ]; seed = zero; floor = zero; top = zero } in
      let local = ref 0 and ok = ref true in
      let check_query ~has_read ~bound ~cutoff =
        let got = Nlog.visible_max !l ~has_read ~bound:(Vclock.of_array bound) ~cutoff in
        if not (Vclock.equal got (Vclock.of_array (nlog_query m ~has_read ~bound ~cutoff))) then
          ok := false
      in
      let cutoffs r =
        let locals = List.map (fun (_, vc, _) -> vc.(0)) m.es in
        [ max_int; List.hd locals; (* inside a row group *) List.nth locals (r mod List.length locals) + 1;
          r mod (!local + 2) ]
      in
      List.iter
        (fun (op, b, c, r) ->
          match op with
          | 9 ->
              let wm = [| r mod (!local + 1); b; c |] in
              let len = List.length m.es in
              let rec covered i = function
                | (_, vc, _) :: tl when i < len - 1 && Array.for_all2 ( <= ) vc wm ->
                    covered (i + 1) tl
                | _ -> i
              in
              let from = covered 0 m.es in
              if from > 0 then begin
                m.floor <- List.fold_left (fun acc (_, vc, _) -> vmax acc vc) m.seed
                             (List.filteri (fun i _ -> i < from) m.es);
                m.seed <- m.floor;
                m.es <- List.filteri (fun i _ -> i >= from) m.es
              end;
              if Nlog.prune_covered !l ~watermark:(Vclock.of_array wm) <> from then ok := false
          | 10 ->
              List.iter
                (fun cutoff ->
                  check_query ~has_read:[| false; r land 1 = 1; r land 2 = 2 |]
                    ~bound:[| max_int; b; c |] ~cutoff;
                  check_query ~has_read:[| false; false; false |] ~bound:zero ~cutoff)
                (cutoffs r)
          | 11 ->
              let fresh = Nlog.create ~nodes:nodes3 ~node:0 in
              Nlog.restore fresh (Nlog.image !l);
              (* the restored log is the imaged one: the model stays *)
              l := fresh
          | _ ->
              local := !local + 1 + (r mod 3);
              let vc = [| !local; b; c |] and ws = List.init (r mod 4) (fun k -> (r + k) mod 50) in
              let txn = tx 0 !local in
              Nlog.add !l ~txn ~vc:(Vclock.of_array vc) ~ws;
              m.es <- m.es @ [ (txn, vc, ws) ];
              m.top <- vmax m.top vc)
        ops;
      List.iter
        (fun cutoff ->
          check_query ~has_read:[| false; true; false |] ~bound:[| max_int; 10; max_int |] ~cutoff;
          check_query ~has_read:[| false; false; false |] ~bound:zero ~cutoff)
        (cutoffs 7);
      let entries =
        List.rev_map (fun (e : Nlog.entry) -> (e.txn, Vclock.to_array e.vc, e.ws)) (Nlog.entries !l)
      in
      !ok && entries = m.es
      && Vclock.equal (Nlog.committed_max !l) (Vclock.of_array m.top)
      && Vclock.equal (Nlog.floor !l) (Vclock.of_array m.floor)
      && Nlog.size !l = List.length m.es)

(* ---------- Slots.Memo: the write-set memo against a Hashtbl model ----------

   Local ids arrive out of order (a window behind the newest), some are
   re-inserted, some lie far below everything kept (a slot-range rebase);
   with a horizon of 40 ticks every 4,096th insert drops most of the memo.
   Image round trips restart the memo, and the pruning period with it. *)

let memo_model =
  QCheck.Test.make ~name:"nlog memo matches hashtbl model" ~count:12
    QCheck.(list_of_size (Gen.int_range 5000 9000) (triple (int_bound 99) (int_bound 40) (int_bound 4)))
    (fun ops ->
      let horizon = 40.0 in
      let memo = ref (Slots.Memo.create ~node:1 ~horizon) in
      let model = Hashtbl.create 64 and ops_n = ref 0 and newest = ref 0 and now = ref 0.0 in
      let ok = ref true in
      let check () =
        for l = 0 to !newest + 3 do
          let want = Option.map fst (Hashtbl.find_opt model l) in
          if Slots.Memo.find !memo (tx 1 l) <> want then ok := false
        done;
        if Slots.Memo.find !memo (tx 0 1) <> None then ok := false
      in
      List.iter
        (fun (op, back, n) ->
          now := !now +. 0.25;
          if op = 0 then begin
            let fresh = Slots.Memo.create ~node:1 ~horizon in
            Slots.Memo.restore fresh (Slots.Memo.image !memo);
            memo := fresh;
            ops_n := 0;
            check ()
          end
          else begin
            let l =
              if op = 1 then back (* far below: rebases the slot range *)
              else if op < 10 then Stdlib.max 1 (!newest - back) (* re-insert or late *)
              else (newest := !newest + 1; !newest)
            in
            let ws = List.init n (fun k -> (l * 7) + k) in
            Slots.Memo.add !memo ~txn:(tx 1 l) ~ws ~now:!now;
            Hashtbl.replace model l (ws, !now);
            incr ops_n;
            if !ops_n land 4095 = 0 then begin
              let cutoff = !now -. horizon in
              Hashtbl.filter_map_inplace (fun _ (ws, at) -> if at < cutoff then None else Some (ws, at)) model;
              check ()
            end
          end)
        ops;
      check ();
      !ok)

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
            if Locks.is_free t k then incr violations;
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
  Alcotest.(check int) "all released" 0 (Locks.holder_count t);
  Alcotest.(check int) "no state for free keys" 0 (Locks.key_count t);
  (* A key's state is dropped and created again while a waiter is parked
     on it: the reader releases (the key goes free, its state is dropped)
     and, in the same event, a second reader takes the key again.  The
     parked writer must judge the new state, not the one it parked on. *)
  let k = 9 and r1 = tx 1 1 and w = tx 1 2 and r2 = tx 1 3 in
  let writer_got = ref nan in
  Sim.spawn sim (fun () ->
      assert (Locks.acquire t r1 Locks.Shared k ~timeout:1.0);
      Sim.spawn sim (fun () ->
          if Locks.acquire t w Locks.Exclusive k ~timeout:1.0 then writer_got := Sim.now sim);
      Sim.sleep sim 0.001;
      Locks.release_txn t r1;
      Alcotest.(check bool) "state dropped with the last holder" true (Locks.is_free t k);
      assert (Locks.acquire t r2 Locks.Shared k ~timeout:1.0);
      Sim.sleep sim 0.001;
      Alcotest.(check bool) "writer still parked behind the new reader" true
        (Float.is_nan !writer_got && Locks.holds_shared t r2 k);
      Locks.release_txn t r2);
  let t0 = Sim.now sim in
  Sim.run sim;
  Alcotest.(check bool) "writer granted once the new reader left" true
    (Float.abs (!writer_got -. (t0 +. 0.002)) < 1e-9);
  Locks.release_txn t w;
  Alcotest.(check int) "released again" 0 (Locks.key_count t)

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

(* ---------- Walter's version chains vs the list model ----------

   Same-key writers in write order, at random sites with per-site sequence
   numbers (gaps stand for the sites' other commits); each writer's start
   clock lies between its predecessor's start, raised to cover the
   predecessor's commit, and the commits made so far.  Their installs
   arrive in a random interleaving that keeps each site's sequence order,
   as propagation does.  The model is the chain as a list with the
   write-order insertion Walter's store had as a list: a version goes in
   front of the first version its writer's start covers. *)

type mver = { mw : Ids.txn; msite : int; mseq : int; mstart : Vclock.t; mvalue : string }

let m_covers start v = v.mseq <= Vclock.get start v.msite

let m_install ver chain =
  let rec ins = function
    | [] -> [ ver ]
    | v :: _ as all when m_covers ver.mstart v -> ver :: all
    | v :: rest -> v :: ins rest
  in
  ins chain

let walter_chain_model =
  QCheck.Test.make ~name:"walter chain order matches list model" ~count:300 QCheck.int (fun seed ->
      let g = Prng.create ~seed in
      let sites = 3 and key = 7 in
      let committed = Array.make sites 0 in
      let prev = ref None in
      let writers =
        List.init
          (1 + Prng.int g 12)
          (fun i ->
            let site = Prng.int g sites in
            let lo j =
              match !prev with
              | None -> 0
              | Some p -> Int.max (Vclock.get p.mstart j) (if j = p.msite then p.mseq else 0)
            in
            let start =
              Vclock.of_array
                (Array.init sites (fun j -> lo j + Prng.int g (committed.(j) - lo j + 1)))
            in
            let seq = committed.(site) + 1 + Prng.int g 2 in
            committed.(site) <- seq;
            let v = { mw = tx site (i + 1); msite = site; mseq = seq; mstart = start;
                      mvalue = Printf.sprintf "v%d" i } in
            prev := Some v;
            v)
      in
      (* a random interleaving of the per-site queues *)
      let queues = Array.init sites (fun s -> List.filter (fun v -> v.msite = s) writers) in
      let rec deliver acc =
        match List.filter (fun s -> queues.(s) <> []) (List.init sites Fun.id) with
        | [] -> List.rev acc
        | live ->
            let s = List.nth live (Prng.int g (List.length live)) in
            let v = List.hd queues.(s) in
            queues.(s) <- List.tl queues.(s);
            deliver (v :: acc)
      in
      let c = Walter_kv.Chains.create [| key |] and model = ref [] in
      let writers_of l = List.map (fun v -> v.mw) l in
      let same_chain () = List.equal Ids.equal_txn (Walter_kv.Chains.chain c 0) (writers_of !model) in
      let agrees start =
        let s = Walter_kv.Chains.visible_read c 0 ~start in
        let w, value =
          match List.find_opt (m_covers start) !model with
          | Some v -> (v.mw, v.mvalue)
          | None -> (Ids.genesis, Ids.boot_value key)
        in
        Ids.equal_txn (Walter_kv.Chains.writer c s) w
        && String.equal (Walter_kv.Chains.value c 0 s) value
        && Bool.equal
             (Walter_kv.Chains.ww_ok c 0 ~start)
             (match !model with [] -> true | v :: _ -> m_covers start v)
      in
      let random_start () =
        Vclock.of_array (Array.init sites (fun j -> Prng.int g (committed.(j) + 2)))
      in
      List.for_all
        (fun v ->
          Walter_kv.Chains.install c 0 ~value:v.mvalue ~writer:v.mw ~seq:v.mseq ~start:v.mstart;
          model := m_install v !model;
          same_chain () && List.for_all agrees (List.init 4 (fun _ -> random_start ())))
        (deliver [])
      && List.equal Ids.equal_txn (Walter_kv.Chains.chain c 0) (List.rev (writers_of writers)))

(* ---------- Frozen means frozen: images against deep-copy models ----------

   Each structure takes random mutations (installs, GC sweeps and the
   free-slot reuse after them, prunes, state shifts, re-bases and
   compaction) interleaved with images.  At each image a deep-copy model
   is read off the live structure, and the image's byte price is taken.
   At the end every image must still match both: restored onto a fresh
   structure, which is then mutated, and restored again onto another,
   whose own mutations must not reach the first. *)

let frozen ~name ?(count = 40) ?(refill = fun _ _ -> true) ~steps ~every ~create ~mutate ~image
    ~restore ~model ~bytes () =
  QCheck.Test.make ~name ~count QCheck.int (fun seed ->
      let g = Prng.create ~seed in
      let live = create () and imgs = ref [] in
      for _ = 1 to steps do
        if Prng.int g every = 0 then begin
          let img = image live in
          imgs := (img, model live, bytes img) :: !imgs
        end
        else mutate g live
      done;
      List.for_all
        (fun (img, m, b) ->
          let a = create () and again = create () in
          restore a img;
          model a = m
          && refill a m
          && begin
               for _ = 1 to 40 do mutate g a done;
               restore again img;
               model again = m
             end
          &&
          (* two stores restored from one image write apart *)
          let ma = model a in
          for _ = 1 to 40 do mutate g again done;
          model a = ma && bytes img = b)
        !imgs)

let stamp = ref 0 (* a counter every mutation draws clocks and ids from *)

let tick () = incr stamp; !stamp

let frozen_keys = [| 1; 3; 5; 7; 9; 11 |]

(* Each chain's newest value and writer and its clocks, oldest first
   (they name the versions here), read by a walk bounded so that a cycle
   fails instead of looping. *)
let mvstore_model s =
  let clocks k =
    let seen = ref [] and n = ref 0 in
    let skip c = incr n; seen := Vclock.to_array c :: !seen; !n < 1000 in
    let newest = Mvstore.last s k in
    ignore (Mvstore.select s k ~skip : Mvstore.slot);
    (Mvstore.slot_value s newest, Mvstore.slot_writer s newest, !seen)
  in
  (Mvstore.version_count s, Array.map clocks frozen_keys)

(* Installs into a restored store use up the free list it was imaged
   with: every chain must then read as before plus the new versions, so a
   free list that a stray write reached fails here, before a GC sweep
   could loop on it. *)
let mvstore_refill s (count, chains) =
  let n = (Mvstore.mem_words s).free_slots + 2 and expect = Array.copy chains in
  for i = 1 to n do
    let c = tick () and j = i mod Array.length frozen_keys in
    let value = Printf.sprintf "v%d" c and writer = tx (c mod 2) c in
    Mvstore.install s frozen_keys.(j) ~value ~vc:(Vclock.of_array [| c; 0 |]) ~writer;
    let _, _, clocks = expect.(j) in
    expect.(j) <- (value, writer, clocks @ [ [| c; 0 |] ])
  done;
  mvstore_model s = (count + n, expect)

let mvstore_frozen =
  frozen ~name:"mvstore images stay frozen" ~steps:600 ~every:40 ~refill:mvstore_refill
    ~create:(fun () -> Mvstore.create ~nodes:2 ~keys:frozen_keys)
    ~mutate:(fun g s ->
      let k = Prng.pick g frozen_keys in
      match Prng.int g 5 with
      | 0 -> ignore (Mvstore.truncate_covered s k ~watermark:(Vclock.of_array [| tick () - Prng.int g 40; 9 |]) : int)
      | 1 -> ignore (Mvstore.sweep_covered s ~watermark:(Vclock.of_array [| tick () - Prng.int g 40; 9 |]) ~budget:3 : int)
      | _ ->
          let c = tick () in
          Mvstore.install s k ~value:(Printf.sprintf "v%d" c) ~vc:(Vclock.of_array [| c; Prng.int g 9 |])
            ~writer:(tx (c mod 2) c))
    ~image:Mvstore.image_of ~restore:Mvstore.restore ~bytes:Mvstore.image_bytes ~model:mvstore_model
    ()

let nlog_frozen =
  frozen ~name:"nlog images stay frozen" ~steps:600 ~every:40
    ~create:(fun () -> Nlog.create ~nodes:2 ~node:0)
    ~mutate:(fun g l ->
      if Prng.int g 6 = 0 then
        ignore (Nlog.prune_covered l ~watermark:(Vclock.of_array [| !stamp - Prng.int g 60; Prng.int g 9 |]) : int)
      else
        let c = tick () in
        Nlog.add l ~txn:(tx 0 c) ~vc:(Vclock.of_array [| c; Prng.int g 9 |])
          ~ws:(List.init (Prng.int g 4) (fun i -> c + i)))
    ~image:Nlog.image ~restore:Nlog.restore ~bytes:Nlog.image_bytes
    ~model:(fun l ->
      ( List.map (fun (e : Nlog.entry) -> (e.txn, Vclock.to_array e.vc, e.ws)) (Nlog.entries l),
        Vclock.to_array (Nlog.committed_max l), Vclock.to_array (Nlog.floor l), Nlog.size l ))
    ()

let slots_frozen =
  frozen ~name:"slots images stay frozen" ~steps:800 ~every:50
    ~create:(fun () -> Slots.create ~node:1)
    ~mutate:(fun g m ->
      let near () = tx 1 (Int.max 0 (!stamp - Prng.int g 100)) in
      match Prng.int g 8 with
      | 0 -> Slots.shift m (near ()) ~from:(1 + Prng.int g 3) (1 + Prng.int g 3)
      | 1 ->
          let r = Prng.int g 4 in
          Slots.retain m ~keep:(fun s i -> (Slots.value s i + r) mod 4 > 0) ~move:Fun.id
      | 2 -> Slots.set m (tx 1 (Int.max 0 (!stamp - 300 - Prng.int g 100))) (tick ()) ~st:1 ~now:0.5
      | _ ->
          let c = tick () in
          Slots.set m (if Prng.bool g then tx 1 c else near ()) c ~st:(1 + Prng.int g 3)
            ~now:(float_of_int c))
    ~image:Slots.freeze ~restore:Slots.thaw ~bytes:(fun i -> Slots.fold (fun _ _ _ _ n -> n + 1) i 0)
    ~model:(fun m -> Slots.fold (fun l v at st acc -> (l, v, at, st) :: acc) m [])
    ()

(* more than 4,096 adds, so the memo compacts in between *)
let memo_frozen =
  let span = 6_000 in
  frozen ~name:"memo images stay frozen" ~count:6 ~steps:span ~every:600
    ~create:(fun () -> Slots.Memo.create ~node:1 ~horizon:40.0)
    ~mutate:(fun g m ->
      let c = tick () in
      let l = if Prng.int g 4 = 0 then Prng.int g span else c mod span in
      Slots.Memo.add m ~txn:(tx 1 l) ~ws:(List.init (Prng.int g 4) (fun i -> c + i))
        ~now:(float_of_int c *. 0.01))
    ~image:Slots.Memo.image ~restore:Slots.Memo.restore ~bytes:Slots.Memo.image_bytes
    ~model:(fun m -> List.init span (fun l -> Slots.Memo.find m (tx 1 l)))
    ()

let chains_frozen =
  let module C = Walter_kv.Chains in
  frozen ~name:"walter chain images stay frozen" ~steps:600 ~every:40
    ~create:(fun () -> ref (C.create frozen_keys))
    ~mutate:(fun g c ->
      let n = tick () in
      C.install !c (Prng.int g (Array.length frozen_keys)) ~value:(Printf.sprintf "v%d" n)
        ~writer:(tx (n mod 3) n) ~seq:n
        ~start:(Vclock.of_array (Array.init 3 (fun _ -> n - Prng.int g 30))))
    ~image:(fun c -> C.freeze !c) ~restore:(fun c img -> c := C.freeze img)
    ~bytes:(fun img -> C.image_bytes img ~nodes:3)
    ~model:(fun c ->
      (* a bounded walk: a chain a stray write turned into a cycle fails
         the comparison instead of looping *)
      let rec walk s n acc = if s < 0 || n = 0 then acc else walk (C.next !c s) (n - 1) ((C.writer !c s, C.value !c 0 s) :: acc) in
      Array.map (fun h -> walk h 1000 []) !c.C.head)
    ()

let () =
  Alcotest.run "props"
    [
      ( "equeue+prng",
        [
          QCheck_alcotest.to_alcotest equeue_mixed_ops;
          QCheck_alcotest.to_alcotest equeue_same_instant_burst;
          QCheck_alcotest.to_alcotest equeue_arena_reuse;
          QCheck_alcotest.to_alcotest equeue_filter_ops;
          Alcotest.test_case "filter before re-anchor" `Quick test_equeue_filter_before_re_anchor;
          Alcotest.test_case "chi-square uniformity" `Quick test_prng_chi_square_uniform;
          Alcotest.test_case "copy independence" `Quick test_prng_copy_independent;
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
          QCheck_alcotest.to_alcotest nlog_columnar_model;
          QCheck_alcotest.to_alcotest memo_model;
        ] );
      ("commitq", [ QCheck_alcotest.to_alcotest commitq_ordered ]);
      ("locks", [ Alcotest.test_case "exclusion invariant" `Quick test_locks_exclusion_invariant ]);
      ("replication", [ QCheck_alcotest.to_alcotest replication_props ]);
      ("squeue", [ QCheck_alcotest.to_alcotest squeue_remove_model ]);
      ("walter", [ QCheck_alcotest.to_alcotest walter_chain_model ]);
      ( "frozen",
        List.map QCheck_alcotest.to_alcotest
          [ mvstore_frozen; nlog_frozen; slots_frozen; memo_frozen; chains_frozen ] );
    ]
