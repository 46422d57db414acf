(* Tests for the storage substrate: vector clocks, version chains,
   snapshot-queues, CommitQ, NLog, locks, and replica placement. *)

open Sss_data

let tx node local : Ids.txn = { node; local }

let vc l = Vclock.of_array (Array.of_list l)

(* ---------- Vclock ---------- *)

let test_vclock_basics () =
  let z = Vclock.zero 3 in
  Alcotest.(check int) "size" 3 (Vclock.size z);
  Alcotest.(check int) "zero entry" 0 (Vclock.get z 1);
  let a = Vclock.set z 1 5 in
  Alcotest.(check int) "set" 5 (Vclock.get a 1);
  Alcotest.(check int) "original untouched" 0 (Vclock.get z 1);
  let b = Vclock.bump a 1 in
  Alcotest.(check int) "bump" 6 (Vclock.get b 1)

let test_vclock_order () =
  let a = vc [ 1; 2; 3 ] and b = vc [ 2; 2; 4 ] and c = vc [ 0; 5; 0 ] in
  Alcotest.(check bool) "a <= b" true (Vclock.leq a b);
  Alcotest.(check bool) "a < b" true (Vclock.lt a b);
  Alcotest.(check bool) "b </= a" false (Vclock.leq b a);
  Alcotest.(check bool) "a || c concurrent" true (Vclock.concurrent a c);
  Alcotest.(check bool) "a <= a" true (Vclock.leq a a);
  Alcotest.(check bool) "not a < a" false (Vclock.lt a a)

let test_vclock_max () =
  let m = Vclock.max (vc [ 1; 5; 3 ]) (vc [ 4; 2; 3 ]) in
  Alcotest.(check (list int)) "entrywise max" [ 4; 5; 3 ] (Array.to_list (Vclock.to_array m))

let test_vclock_to_array_copies () =
  let a = vc [ 1; 2 ] in
  let arr = Vclock.to_array a in
  arr.(0) <- 99;
  Alcotest.(check int) "immutable" 1 (Vclock.get a 0)

let vclock_lattice_laws =
  let vec = QCheck.(list_of_size (Gen.return 4) (int_bound 100)) in
  QCheck.Test.make ~name:"vclock max is least upper bound" ~count:300
    (QCheck.pair vec vec)
    (fun (xs, ys) ->
      let a = vc xs and b = vc ys in
      let m = Vclock.max a b in
      Vclock.leq a m && Vclock.leq b m
      && Vclock.equal (Vclock.max a b) (Vclock.max b a)
      && Vclock.equal (Vclock.max a a) a)

(* ---------- Ids ---------- *)

let test_ids_gen () =
  let g = Ids.Gen.create 3 in
  let a = Ids.Gen.next g and b = Ids.Gen.next g in
  Alcotest.(check bool) "distinct" false (Ids.equal_txn a b);
  Alcotest.(check int) "node stamped" 3 a.Ids.node;
  Alcotest.(check string) "printing" "T<3.1>" (Ids.txn_to_string a);
  Alcotest.(check bool) "ordered" true (Ids.compare_txn a b < 0)

(* ---------- Mvstore ---------- *)

let test_mvstore_genesis () =
  let s = Mvstore.create ~nodes:2 in
  Mvstore.init_key s 7 ~value:"init";
  let v = Mvstore.last s 7 in
  Alcotest.(check string) "genesis value" "init" (Mvstore.slot_value s v);
  Alcotest.(check bool) "genesis writer" true
    (Ids.equal_txn (Mvstore.slot_writer s v) Ids.genesis);
  Mvstore.init_key s 7 ~value:"other";
  Alcotest.(check string) "init idempotent" "init"
    (Mvstore.slot_value s (Mvstore.last s 7));
  (* the boot default is derived, not stored *)
  let d = Mvstore.create ~nodes:2 in
  Mvstore.init_key d 7 ~value:"init:7";
  Alcotest.(check string) "derived genesis" "init:7"
    (Mvstore.slot_value d (Mvstore.last d 7));
  Alcotest.(check bool) "derived genesis writer" true
    (Mvstore.slot_writer_is d (Mvstore.last d 7) Ids.genesis)

let test_mvstore_install_order () =
  let s = Mvstore.create ~nodes:2 in
  Mvstore.init_key s 1 ~value:"v0";
  Mvstore.install s 1 ~value:"v1" ~vc:(vc [ 1; 0 ]) ~writer:(tx 0 1);
  Mvstore.install s 1 ~value:"v2" ~vc:(vc [ 2; 0 ]) ~writer:(tx 0 2);
  Alcotest.(check string) "last is newest" "v2" (Mvstore.slot_value s (Mvstore.last s 1));
  Alcotest.(check int) "chain length" 3 (List.length (Mvstore.chain s 1))

let test_mvstore_select () =
  let s = Mvstore.create ~nodes:2 in
  Mvstore.init_key s 1 ~value:"v0";
  Mvstore.install s 1 ~value:"v1" ~vc:(vc [ 1; 0 ]) ~writer:(tx 0 1);
  Mvstore.install s 1 ~value:"v2" ~vc:(vc [ 2; 0 ]) ~writer:(tx 0 2);
  let bound = vc [ 1; 5 ] in
  let chosen = Mvstore.select s 1 ~skip:(fun cvc -> not (Vclock.leq cvc bound)) in
  Alcotest.(check string) "bounded select" "v1" (Mvstore.slot_value s chosen);
  (* Everything skipped: falls back to oldest. *)
  let oldest = Mvstore.select s 1 ~skip:(fun _ -> true) in
  Alcotest.(check string) "fallback to oldest" "v0" (Mvstore.slot_value s oldest)

let test_mvstore_truncate () =
  let s = Mvstore.create ~nodes:1 in
  Mvstore.init_key s 1 ~value:"v0";
  for i = 1 to 10 do
    Mvstore.install s 1 ~value:(Printf.sprintf "v%d" i) ~vc:(vc [ i ]) ~writer:(tx 0 i)
  done;
  (* the genesis is always covered, and nothing is older than it *)
  Alcotest.(check int) "zero watermark drops nothing" 0
    (Mvstore.truncate_covered s 1 ~watermark:(vc [ 0 ]));
  Alcotest.(check int) "dropped v1..v7 and the genesis" 8
    (Mvstore.truncate_covered s 1 ~watermark:(vc [ 8 ]));
  Alcotest.(check int) "kept 3" 3 (List.length (Mvstore.chain s 1));
  Alcotest.(check string) "newest survives" "v10" (Mvstore.slot_value s (Mvstore.last s 1));
  ignore (Mvstore.truncate_covered s 1 ~watermark:(vc [ max_int ]) : int);
  Alcotest.(check int) "never below 1" 1 (List.length (Mvstore.chain s 1))

(* A 200k-version tail freed in one truncate: the arena walks the chain
   iteratively, so this must not blow the stack (the pre-arena list store
   used a non-tail-recursive take here). *)
let test_mvstore_long_chain_truncate () =
  let s = Mvstore.create ~nodes:1 in
  Mvstore.init_key s 0 ~value:"init:0";
  let n = 200_000 in
  for i = 1 to n do
    Mvstore.install s 0 ~value:"x" ~vc:(vc [ i ]) ~writer:(tx 0 i)
  done;
  Alcotest.(check int) "all installed" (n + 1) (Mvstore.version_count s);
  Alcotest.(check int) "dropped the tail" (n - 1)
    (Mvstore.truncate_covered s 0 ~watermark:(vc [ n - 1 ]));
  Alcotest.(check int) "kept 2" 2 (Mvstore.version_count s);
  Alcotest.(check string) "newest survives" "x" (Mvstore.slot_value s (Mvstore.last s 0));
  ignore (Mvstore.truncate_covered s 0 ~watermark:(vc [ n ]) : int);
  Alcotest.(check int) "kept 1" 1 (Mvstore.version_count s)

(* Clock-arena recycling: drive identical install/GC cycles and require the
   resident footprint and the free-list occupancy to sit exactly where they
   were once steady state is reached.  A refcount leak (a cell freed never
   or twice) shows up as arena growth or free-list drift. *)
let test_mvstore_arena_recycling () =
  let nodes = 4 and nk = 8 in
  let s = Mvstore.create ~nodes in
  for k = 0 to nk - 1 do
    Mvstore.init_key s k ~value:("init:" ^ string_of_int k)
  done;
  let cycle c =
    for j = 0 to 2 do
      let t = (3 * c) + j in
      (* one physical clock per commit, shared across the whole write set *)
      let cvc = vc [ t; 0; 0; 0 ] in
      for k = 0 to nk - 1 do
        Mvstore.install s k ~value:(Printf.sprintf "v%06d" t) ~vc:cvc
          ~writer:(tx (t mod nodes) t)
      done
    done;
    (* the middle install is covered: every chain shrinks back to 2 *)
    let w = vc [ (3 * c) + 1; 0; 0; 0 ] in
    ignore (Mvstore.sweep_covered s ~watermark:w ~budget:(Mvstore.chains s))
  in
  for c = 1 to 8 do
    cycle c
  done;
  let m0 = Mvstore.mem_words s in
  for c = 9 to 60 do
    cycle c
  done;
  let m1 = Mvstore.mem_words s in
  Alcotest.(check int) "chains hold two versions" (2 * nk) m1.Mvstore.versions;
  Alcotest.(check int) "footprint flat across cycles" (Mvstore.mem_total m0)
    (Mvstore.mem_total m1);
  Alcotest.(check int) "free lists back to baseline" m0.Mvstore.clock_free_words
    m1.Mvstore.clock_free_words;
  Alcotest.(check int) "slot free list back to baseline" m0.Mvstore.free_slots
    m1.Mvstore.free_slots

(* Model-based battery: random op interleavings replayed against both the
   arena store and a boxed list-of-records reference, comparing every chain
   (values, clocks, writers) after each step.  This pins the whole decode
   path — delta chains, interned zeros, implicit genesis, slot reuse, the
   sweep cursor — to the specification the pre-arena store implemented
   directly. *)

type mver = { mvalue : string; mvc : int array; mwriter : Ids.txn }

type mop =
  | MInstall of int * int array * (int * int)
  | MInstall2 of int * int * int array * (int * int)  (* shared-clock write set *)
  | MSelect of int * int array
  | MCovered of int * int array
  | MSweep of int array * int
  | MRestore of int * (int * int array * (int * int)) list * int
  | MRoundtrip

let mop_to_string op =
  let arr a = "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int a)) ^ "]" in
  match op with
  | MInstall (k, c, (w, l)) -> Printf.sprintf "install k%d %s T<%d.%d>" k (arr c) w l
  | MInstall2 (k1, k2, c, (w, l)) ->
      Printf.sprintf "install2 k%d k%d %s T<%d.%d>" k1 k2 (arr c) w l
  | MSelect (k, b) -> Printf.sprintf "select k%d %s" k (arr b)
  | MCovered (k, w) -> Printf.sprintf "covered k%d %s" k (arr w)
  | MSweep (w, b) -> Printf.sprintf "sweep %s budget:%d" (arr w) b
  | MRestore (k, vs, tail) ->
      Printf.sprintf "restore k%d %d-versions tail:%d" k (List.length vs) tail
  | MRoundtrip -> "roundtrip"

let mvstore_matches_model =
  let nodes = 3 and nkeys = 4 in
  let key i = (2 * i) + 1 in
  let zeros () = Array.make nodes 0 in
  let arr_leq a b =
    let ok = ref true in
    Array.iteri (fun i x -> if x > b.(i) then ok := false) a;
    !ok
  in
  let gen =
    let open QCheck.Gen in
    let clock = array_size (return nodes) (int_bound 6) in
    let writer = pair (int_bound (nodes - 1)) (int_range 1 99) in
    let k = int_bound (nkeys - 1) in
    let ver = triple (int_bound 99) clock writer in
    let op =
      frequency
        [
          (6, map3 (fun k c w -> MInstall (k, c, w)) k clock writer);
          (2, map3 (fun (k1, k2) c w -> MInstall2 (k1, k2, c, w)) (pair k k) clock writer);
          (4, map2 (fun k b -> MSelect (k, b)) k clock);
          (2, map2 (fun k w -> MCovered (k, w)) k clock);
          (2, map2 (fun w b -> MSweep (w, b)) clock (int_range 1 6));
          (1, map3 (fun k vs tail -> MRestore (k, vs, tail)) k (list_size (int_bound 4) ver) (int_bound 2));
          (1, return MRoundtrip);
        ]
    in
    list_size (int_bound 50) op
  in
  let print ops = String.concat "; " (List.map mop_to_string ops) in
  let run ops =
    let s = Mvstore.create ~nodes in
    let model = Array.make nkeys [] in
    (* creation order fixes the handle order the sweep cursor walks *)
    for i = 0 to nkeys - 1 do
      let v = if i = 0 then "boot" else "init:" ^ string_of_int (key i) in
      Mvstore.init_key s (key i) ~value:v;
      model.(i) <- [ { mvalue = v; mvc = zeros (); mwriter = Ids.genesis } ]
    done;
    let m_hi = ref 0 and m_pos = ref 0 in
    let m_covered i w =
      let rec walk kept = function
        | [] -> 0 (* genesis gone, nothing covered: untouched *)
        | v :: older ->
            if arr_leq v.mvc w then begin
              model.(i) <- List.rev_append kept [ v ];
              List.length older
            end
            else walk (v :: kept) older
      in
      walk [] model.(i)
    in
    let m_sweep w budget =
      let dropped = ref 0 in
      for _ = 1 to budget do
        if !m_pos >= !m_hi then begin
          m_hi := nkeys;
          m_pos := 0
        end;
        dropped := !dropped + m_covered (!m_hi - 1 - !m_pos) w;
        incr m_pos
      done;
      !dropped
    in
    let agree () =
      let ok = ref true in
      for i = 0 to nkeys - 1 do
        let mch = model.(i) and ach = Mvstore.chain s (key i) in
        if List.length mch <> List.length ach then ok := false
        else
          List.iter2
            (fun m a ->
              if
                not
                  (String.equal m.mvalue a.Mvstore.value
                  && m.mvc = Vclock.to_array a.Mvstore.vc
                  && Ids.equal_txn m.mwriter a.Mvstore.writer)
              then ok := false)
            mch ach
      done;
      let total = Array.fold_left (fun acc l -> acc + List.length l) 0 model in
      !ok
      && Mvstore.version_count s = total
      && (Mvstore.mem_words s).Mvstore.versions = total
    in
    let step op =
      match op with
      | MInstall (i, c, (w, l)) ->
          let value = Printf.sprintf "w%d.%d" w l in
          Mvstore.install s (key i) ~value ~vc:(Vclock.of_array c)
            ~writer:(tx w l);
          model.(i) <- { mvalue = value; mvc = Array.copy c; mwriter = tx w l } :: model.(i);
          true
      | MInstall2 (i1, i2, c, (w, l)) ->
          (* one commit touching two keys: the same physical clock is
             installed twice, exercising the refcount-shared memo cell *)
          let cvc = Vclock.of_array c in
          let value = Printf.sprintf "w%d.%d" w l in
          Mvstore.install s (key i1) ~value ~vc:cvc ~writer:(tx w l);
          Mvstore.install s (key i2) ~value ~vc:cvc ~writer:(tx w l);
          model.(i1) <- { mvalue = value; mvc = Array.copy c; mwriter = tx w l } :: model.(i1);
          model.(i2) <- { mvalue = value; mvc = Array.copy c; mwriter = tx w l } :: model.(i2);
          true
      | MSelect (i, b) ->
          let bound = Vclock.of_array b in
          let got =
            Mvstore.select s (key i) ~skip:(fun cvc -> not (Vclock.leq cvc bound))
          in
          let rec walk = function
            | [] -> assert false
            | [ oldest ] -> oldest
            | v :: rest -> if not (arr_leq v.mvc b) then walk rest else v
          in
          let want = walk model.(i) in
          String.equal want.mvalue (Mvstore.slot_value s got)
          && Mvstore.slot_writer_is s got want.mwriter
      | MCovered (i, w) ->
          let got = Mvstore.truncate_covered s (key i) ~watermark:(Vclock.of_array w) in
          got = m_covered i w
      | MSweep (w, b) ->
          let got = Mvstore.sweep_covered s ~watermark:(Vclock.of_array w) ~budget:b in
          got = m_sweep w b
      | MRestore (i, vs, tail) ->
          let expl =
            List.map
              (fun (v, c, (w, l)) ->
                { mvalue = "r" ^ string_of_int v; mvc = Array.copy c; mwriter = tx w l })
              vs
          in
          let g =
            match tail with
            | 0 -> []
            | 1 ->
                [ { mvalue = "init:" ^ string_of_int (key i); mvc = zeros (); mwriter = Ids.genesis } ]
            | _ -> [ { mvalue = "boot"; mvc = zeros (); mwriter = Ids.genesis } ]
          in
          let full = expl @ g in
          Mvstore.restore_chain s (key i)
            (List.map
               (fun m -> { Mvstore.value = m.mvalue; vc = Vclock.of_array m.mvc; writer = m.mwriter })
               full);
          if full <> [] then model.(i) <- full;
          true
      | MRoundtrip ->
          let im = Mvstore.image_of s in
          Mvstore.restore s im;
          Mvstore.image_bytes im > 0
    in
    List.for_all (fun op -> step op && agree ()) ops
  in
  QCheck.Test.make ~name:"mvstore agrees with list model" ~count:150
    (QCheck.make gen ~print) run

(* ---------- Squeue ---------- *)

let test_squeue_ordering () =
  let q = Squeue.create () in
  Squeue.insert_read q ~txn:(tx 1 1) ~sid:7;
  Squeue.insert_read q ~txn:(tx 2 1) ~sid:3;
  Squeue.insert_write q ~txn:(tx 0 1) ~sid:8;
  Alcotest.(check int) "length" 3 (Squeue.length q);
  Alcotest.(check (option int)) "min read sid" (Some 3) (Squeue.min_read_sid q);
  let reader_sids = List.map (fun e -> e.Squeue.sid) (Squeue.readers q) in
  Alcotest.(check (list int)) "readers sorted" [ 3; 7 ] reader_sids;
  Alcotest.(check bool) "read below 8" true (Squeue.exists_read_below q ~sid:8);
  Alcotest.(check bool) "no read below 3" false (Squeue.exists_read_below q ~sid:3)

let test_squeue_idempotent_insert () =
  let q = Squeue.create () in
  Squeue.insert_read q ~txn:(tx 1 1) ~sid:5;
  Squeue.insert_read q ~txn:(tx 1 1) ~sid:5;
  Alcotest.(check int) "single entry" 1 (Squeue.length q);
  (* Same transaction with a different sid is a second entry (repeated read
     with a fresher snapshot). *)
  Squeue.insert_read q ~txn:(tx 1 1) ~sid:6;
  Alcotest.(check int) "distinct sid re-entry" 2 (Squeue.length q)

let test_squeue_remove () =
  let q = Squeue.create () in
  Squeue.insert_read q ~txn:(tx 1 1) ~sid:5;
  Squeue.insert_read q ~txn:(tx 1 1) ~sid:6;
  Squeue.insert_write q ~txn:(tx 2 1) ~sid:9;
  Alcotest.(check bool) "removed" true (Squeue.remove q (tx 1 1));
  Alcotest.(check bool) "all entries gone" false (Squeue.mem q (tx 1 1));
  Alcotest.(check bool) "writer stays" true (Squeue.mem q (tx 2 1));
  Alcotest.(check bool) "second remove is false" false (Squeue.remove q (tx 1 1));
  Alcotest.(check bool) "not empty yet" false (Squeue.is_empty q);
  ignore (Squeue.remove q (tx 2 1));
  Alcotest.(check bool) "empty" true (Squeue.is_empty q)

let squeue_sorted_property =
  QCheck.Test.make ~name:"squeue readers always sorted by sid" ~count:200
    QCheck.(list (pair (int_bound 5) (int_bound 50)))
    (fun ops ->
      let q = Squeue.create () in
      List.iter (fun (who, sid) -> Squeue.insert_read q ~txn:(tx who 1) ~sid) ops;
      let sids = List.map (fun e -> e.Squeue.sid) (Squeue.readers q) in
      List.sort Int.compare sids = sids)

(* ---------- Commitq ---------- *)

let test_commitq_order_and_head () =
  let q = Commitq.create ~node:0 in
  Commitq.put q ~txn:(tx 0 1) ~vc:(vc [ 5; 0 ]);
  Commitq.put q ~txn:(tx 0 2) ~vc:(vc [ 3; 0 ]);
  (match Commitq.head q with
  | Some e ->
      Alcotest.(check bool) "lowest vc[i] first" true (Ids.equal_txn e.Commitq.txn (tx 0 2))
  | None -> Alcotest.fail "expected head");
  (* Ready-ing the head with a larger final clock can reorder it. *)
  Commitq.update q ~txn:(tx 0 2) ~vc:(vc [ 9; 0 ]);
  (match Commitq.head q with
  | Some e ->
      Alcotest.(check bool) "reordered" true (Ids.equal_txn e.Commitq.txn (tx 0 1));
      Alcotest.(check bool) "still pending" true (e.Commitq.status = Commitq.Pending)
  | None -> Alcotest.fail "expected head");
  Commitq.remove q (tx 0 1);
  (match Commitq.head q with
  | Some e ->
      Alcotest.(check bool) "ready head" true (e.Commitq.status = Commitq.Ready)
  | None -> Alcotest.fail "expected head");
  Commitq.remove q (tx 0 2);
  Alcotest.(check int) "drained" 0 (Commitq.length q)

let test_commitq_duplicate_put_rejected () =
  let q = Commitq.create ~node:0 in
  Commitq.put q ~txn:(tx 0 1) ~vc:(vc [ 1 ]);
  Alcotest.check_raises "duplicate put"
    (Invalid_argument "Commitq.put: duplicate transaction") (fun () ->
      Commitq.put q ~txn:(tx 0 1) ~vc:(vc [ 2 ]))

let test_commitq_update_missing_is_noop () =
  let q = Commitq.create ~node:0 in
  Commitq.update q ~txn:(tx 0 9) ~vc:(vc [ 1 ]);
  Alcotest.(check int) "still empty" 0 (Commitq.length q)

(* ---------- Nlog ---------- *)

let test_nlog_most_recent () =
  let l = Nlog.create ~nodes:2 ~node:0 in
  Alcotest.(check int) "genesis local" 0 (Nlog.most_recent_local l);
  Nlog.add l ~txn:(tx 0 1) ~vc:(vc [ 1; 0 ]) ~ws:[ 1 ];
  Nlog.add l ~txn:(tx 0 2) ~vc:(vc [ 2; 3 ]) ~ws:[ 2 ];
  Alcotest.(check int) "local entry" 2 (Nlog.most_recent_local l);
  Alcotest.(check (list int)) "most recent vc" [ 2; 3 ]
    (Array.to_list (Vclock.to_array (Nlog.most_recent_vc l)))

let test_nlog_visible_max_unconstrained () =
  let l = Nlog.create ~nodes:2 ~node:0 in
  Nlog.add l ~txn:(tx 0 1) ~vc:(vc [ 1; 4 ]) ~ws:[];
  Nlog.add l ~txn:(tx 0 2) ~vc:(vc [ 2; 1 ]) ~ws:[];
  let m =
    Nlog.visible_max l ~has_read:[| false; false |] ~bound:(vc [ 0; 0 ]) ~cutoff:max_int
  in
  Alcotest.(check (list int)) "max over all entries" [ 2; 4 ]
    (Array.to_list (Vclock.to_array m))

let test_nlog_visible_max_bounded () =
  let l = Nlog.create ~nodes:2 ~node:0 in
  Nlog.add l ~txn:(tx 0 1) ~vc:(vc [ 1; 1 ]) ~ws:[];
  Nlog.add l ~txn:(tx 0 2) ~vc:(vc [ 2; 9 ]) ~ws:[];
  (* Node 1 was already read with bound 5: the second entry (vc[1]=9) is not
     admissible. *)
  let m =
    Nlog.visible_max l ~has_read:[| false; true |] ~bound:(vc [ 0; 5 ]) ~cutoff:max_int
  in
  Alcotest.(check (list int)) "bounded" [ 1; 1 ] (Array.to_list (Vclock.to_array m))

let test_nlog_visible_max_cutoff () =
  (* The cutoff makes the local snapshot a prefix of the apply order: the
     entry at local clock 2 and everything after it are invisible. *)
  let l = Nlog.create ~nodes:2 ~node:0 in
  Nlog.add l ~txn:(tx 0 1) ~vc:(vc [ 1; 1 ]) ~ws:[];
  Nlog.add l ~txn:(tx 0 2) ~vc:(vc [ 2; 2 ]) ~ws:[];
  Nlog.add l ~txn:(tx 0 3) ~vc:(vc [ 3; 1 ]) ~ws:[];
  let m =
    Nlog.visible_max l ~has_read:[| false; false |] ~bound:(vc [ 0; 0 ]) ~cutoff:2
  in
  Alcotest.(check (list int)) "prefix below cutoff" [ 1; 1 ]
    (Array.to_list (Vclock.to_array m))

let test_nlog_prune () =
  let l = Nlog.create ~nodes:1 ~node:0 in
  for i = 1 to 10 do
    Nlog.add l ~txn:(tx 0 i) ~vc:(vc [ i ]) ~ws:[]
  done;
  Alcotest.(check int) "11 entries (incl genesis)" 11 (Nlog.size l);
  (* drops the genesis and entries 1..7, keeping the uncovered suffix *)
  Alcotest.(check int) "dropped the covered prefix" 8
    (Nlog.prune_covered l ~watermark:(vc [ 7 ]));
  Alcotest.(check int) "pruned" 3 (Nlog.size l);
  Alcotest.(check int) "most recent preserved" 10 (Nlog.most_recent_local l);
  Alcotest.(check int) "committed max survives pruning" 10
    (Vclock.get (Nlog.committed_max l) 0);
  Alcotest.(check int) "floor holds the dropped maximum" 7 (Vclock.get (Nlog.floor l) 0);
  ignore (Nlog.prune_covered l ~watermark:(vc [ max_int ]) : int);
  Alcotest.(check int) "never below 1" 1 (Nlog.size l)

(* ---------- Locks ---------- *)

let with_sim f =
  let sim = Sss_sim.Sim.create () in
  let result = ref None in
  Sss_sim.Sim.spawn sim (fun () -> result := Some (f sim));
  Sss_sim.Sim.run sim;
  match !result with Some r -> r | None -> Alcotest.fail "fiber did not finish"

let test_locks_shared_compatible () =
  with_sim (fun sim ->
      let t = Locks.create sim in
      Alcotest.(check bool) "t1 shared" true (Locks.acquire t (tx 1 1) Locks.Shared 5 ~timeout:0.1);
      Alcotest.(check bool) "t2 shared" true (Locks.acquire t (tx 2 1) Locks.Shared 5 ~timeout:0.1);
      Alcotest.(check bool) "exclusive blocked" false
        (Locks.acquire t (tx 3 1) Locks.Exclusive 5 ~timeout:0.001);
      Locks.release_txn t (tx 1 1);
      Locks.release_txn t (tx 2 1);
      Alcotest.(check bool) "exclusive after release" true
        (Locks.acquire t (tx 3 1) Locks.Exclusive 5 ~timeout:0.1))

let test_locks_exclusive_blocks_shared () =
  with_sim (fun sim ->
      let t = Locks.create sim in
      Alcotest.(check bool) "ex" true (Locks.acquire t (tx 1 1) Locks.Exclusive 5 ~timeout:0.1);
      Alcotest.(check bool) "shared blocked" false
        (Locks.acquire t (tx 2 1) Locks.Shared 5 ~timeout:0.001);
      (* Re-entrant: the owner may take the shared lock it implies. *)
      Alcotest.(check bool) "owner reenters" true
        (Locks.acquire t (tx 1 1) Locks.Shared 5 ~timeout:0.001))

let test_locks_waiter_wakes () =
  let sim = Sss_sim.Sim.create () in
  let t = Locks.create sim in
  let acquired_at = ref (-1.0) in
  Sss_sim.Sim.spawn sim (fun () ->
      ignore (Locks.acquire t (tx 1 1) Locks.Exclusive 5 ~timeout:1.0);
      Sss_sim.Sim.sleep sim 0.5;
      Locks.release_txn t (tx 1 1));
  Sss_sim.Sim.spawn sim (fun () ->
      if Locks.acquire t (tx 2 1) Locks.Exclusive 5 ~timeout:1.0 then
        acquired_at := Sss_sim.Sim.now sim);
  Sss_sim.Sim.run sim;
  Alcotest.(check (float 1e-9)) "woken at release" 0.5 !acquired_at

let test_locks_acquire_all_rollback () =
  with_sim (fun sim ->
      let t = Locks.create sim in
      Alcotest.(check bool) "blocker" true
        (Locks.acquire t (tx 9 1) Locks.Exclusive 2 ~timeout:0.1);
      let ok =
        Locks.acquire_all t (tx 1 1) ~exclusive:[ 1; 2; 3 ] ~shared:[] ~timeout:0.001
      in
      Alcotest.(check bool) "failed" false ok;
      Alcotest.(check bool) "key 1 rolled back" true (Locks.is_free t 1);
      Alcotest.(check bool) "key 3 untouched" true (Locks.is_free t 3);
      Alcotest.(check (list int)) "nothing held" [] (Locks.locked_keys t (tx 1 1)))

let test_locks_acquire_all_read_write_overlap () =
  with_sim (fun sim ->
      let t = Locks.create sim in
      (* Update transactions read the keys they write: the shared acquisition
         must succeed on top of the exclusive one. *)
      let ok =
        Locks.acquire_all t (tx 1 1) ~exclusive:[ 4; 5 ] ~shared:[ 4; 5; 6 ] ~timeout:0.01
      in
      Alcotest.(check bool) "granted" true ok;
      Alcotest.(check bool) "exclusive" true (Locks.holds_exclusive t (tx 1 1) 4);
      Alcotest.(check bool) "shared extra" true (Locks.holds_shared t (tx 1 1) 6))

(* ---------- Vcodec ---------- *)

let vcodec_roundtrip =
  let vec = QCheck.(list_of_size (Gen.return 6) (int_bound 100000)) in
  QCheck.Test.make ~name:"vcodec roundtrips against any base" ~count:300
    (QCheck.pair vec vec)
    (fun (b, v) ->
      let base = vc b and clock = vc v in
      let e = Vcodec.encode ~base clock in
      Vclock.equal (Vcodec.decode ~base e) clock)

let test_vcodec_compresses_small_deltas () =
  let base = vc [ 1000; 2000; 3000; 4000; 5000 ] in
  let next = vc [ 1001; 2000; 3002; 4000; 5001 ] in
  let e = Vcodec.encode ~base next in
  Alcotest.(check bool)
    (Printf.sprintf "5 entries in %d bytes (raw %d)" (Vcodec.size e) (Vcodec.raw_size next))
    true
    (Vcodec.size e <= 5 && Vcodec.size e < Vcodec.raw_size next);
  (* against the zero base the varints still beat 8 bytes/entry *)
  let z = Vcodec.encode ~base:(Vclock.zero 5) next in
  Alcotest.(check bool) "varints beat raw" true (Vcodec.size z < Vcodec.raw_size next)

let test_vcodec_size_mismatch () =
  Alcotest.check_raises "encode mismatch"
    (Invalid_argument "Vcodec.encode: size mismatch") (fun () ->
      ignore (Vcodec.encode ~base:(Vclock.zero 2) (Vclock.zero 3)))

(* ---------- Replication ---------- *)

let test_replication_degree () =
  let r = Replication.create ~nodes:5 ~degree:2 ~total_keys:100 in
  for k = 0 to 99 do
    let reps = Replication.replicas r k in
    Alcotest.(check int) "two replicas" 2 (List.length reps);
    List.iter
      (fun n ->
        Alcotest.(check bool) "valid node" true (n >= 0 && n < 5);
        Alcotest.(check bool) "is_replica agrees" true (Replication.is_replica r n k))
      reps
  done

let test_replication_keys_at_consistent () =
  let r = Replication.create ~nodes:4 ~degree:3 ~total_keys:50 in
  for n = 0 to 3 do
    Array.iter
      (fun k ->
        Alcotest.(check bool) "keys_at matches replicas" true
          (List.mem n (Replication.replicas r k)))
      (Replication.keys_at r n)
  done;
  let total = Array.fold_left (fun acc n -> acc + Array.length (Replication.keys_at r n)) 0
      (Array.init 4 (fun i -> i)) in
  Alcotest.(check int) "every key counted degree times" (50 * 3) total

let test_replication_spread () =
  let r = Replication.create ~nodes:10 ~degree:1 ~total_keys:10_000 in
  let counts = Array.make 10 0 in
  for k = 0 to 9_999 do
    List.iter (fun n -> counts.(n) <- counts.(n) + 1) (Replication.replicas r k)
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "balanced (%d)" c)
        true
        (c > 700 && c < 1300))
    counts

let test_replication_bad_degree () =
  Alcotest.check_raises "degree > nodes"
    (Invalid_argument "Replication.create: degree must be within 1 .. nodes") (fun () ->
      ignore (Replication.create ~nodes:3 ~degree:4 ~total_keys:10))

(* ---------- Idset ---------- *)

(* Ids per bitmap word: the retirement granularity. *)
let idset_width = 63

(* Dense ids minted in order, with a gap at every tenth: once the horizon
   has passed since a later word's newest insert, the early gaps read as
   present, the words holding them are reclaimed, and recent gaps still
   read as absent. *)
let test_idset_retirement () =
  let s = Idset.create ~horizon:1.0 in
  let now = ref 0.0 in
  let add id =
    now := !now +. 1e-3;
    if id mod 10 <> 0 then Idset.add s id ~now:!now
  in
  for id = 1 to 1000 do add id done;
  Alcotest.(check bool) "a gap reads absent" false (Idset.mem s 10);
  Alcotest.(check int) "every member counted" 900 (Idset.cardinal s);
  for id = 1001 to 20_000 do add id done;
  Alcotest.(check bool) "an early gap retired: present" true (Idset.mem s 10);
  Alcotest.(check bool) "an early member stays present" true (Idset.mem s 11);
  Alcotest.(check bool) "a recent gap reads absent" false (Idset.mem s 19_990);
  Alcotest.(check bool) "a recent member reads present" true (Idset.mem s 19_991);
  Alcotest.(check bool) "an id never reached reads absent" false (Idset.mem s 40_000);
  Alcotest.(check bool) "retired members leave the count" true (Idset.cardinal s < 18_000);
  (* about 1,000 ids (16 words) inside the horizon at any time; without
     reclaiming, the 318 words of 20,000 ids would stay *)
  let held = Obj.reachable_words (Obj.repr s) in
  Alcotest.(check bool) (Printf.sprintf "retired words reclaimed (%d words)" held) true
    (held <= 300);
  let c = Idset.copy s in
  Alcotest.(check bool) "the copy keeps retired ids present" true (Idset.mem c 10);
  Alcotest.(check bool) "the copy keeps recent gaps absent" false (Idset.mem c 19_990);
  Idset.add c 19_990 ~now:!now;
  Alcotest.(check bool) "the copy is independent" false (Idset.mem s 19_990);
  Alcotest.check_raises "negative ids are refused"
    (Invalid_argument "Idset.add: negative id") (fun () -> Idset.add s (-1) ~now:!now)

type idset_op =
  | Add of int * int * float  (* origin, id, time step *)
  | Mem of int * int
  | Copy

(* Random adds (ids near the start and far past the capacity), lookups and
   copies on a transaction set over three origins, against a table of
   first-insert times.  An inserted id always reads present.  An id never
   inserted may read present only once retired, and retirement must be
   justified: a member of a higher word of the same origin was inserted
   more than the horizon ago.  Copies taken along the way must keep
   answering for the state they copied. *)
let idset_matches_model =
  let horizon = 1.0 in
  let gen_id = QCheck.Gen.(frequency [ (8, int_bound 400); (1, int_range 10_000 100_000) ]) in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          ( 5,
            map3
              (fun o id dt -> Add (o, id, dt))
              (int_bound 2) gen_id
              (oneofl [ 0.0; 0.0; 0.01; 0.3; 1.5 ]) );
          (3, map2 (fun o id -> Mem (o, id)) (int_bound 2) gen_id);
          (1, return Copy);
        ])
  in
  let print_op = function
    | Add (o, id, dt) -> Printf.sprintf "add %d.%d +%g" o id dt
    | Mem (o, id) -> Printf.sprintf "mem %d.%d" o id
    | Copy -> "copy"
  in
  let run ops =
    let s = ref (Idset.Txns.create ~horizon) in
    let model = Hashtbl.create 64 in
    let now = ref 0.0 in
    let frozen = ref [] in
    let justified model ~now (o, id) =
      Hashtbl.fold
        (fun (o', x) at ok ->
          ok || (o' = o && x / idset_width > id / idset_width && at < now -. horizon))
        model false
    in
    let agrees set model ~now (o, id) =
      let present = Idset.Txns.mem set (tx o id) in
      if Hashtbl.mem model (o, id) then present
      else (not present) || justified model ~now (o, id)
    in
    let ok = ref true in
    List.iter
      (fun op ->
        match op with
        | Add (o, id, dt) ->
            now := !now +. dt;
            Idset.Txns.add !s (tx o id) ~now:!now;
            if not (Hashtbl.mem model (o, id)) then Hashtbl.replace model (o, id) !now;
            let distinct = Hashtbl.length model in
            let card = Idset.Txns.cardinal !s in
            if card > distinct || (!now <= horizon && card <> distinct) then ok := false
        | Mem (o, id) -> if not (agrees !s model ~now:!now (o, id)) then ok := false
        | Copy ->
            frozen := (Idset.Txns.copy !s, Hashtbl.copy model, !now) :: !frozen;
            s := Idset.Txns.copy !s)
      ops;
    let probes =
      List.concat_map (fun o -> List.init 500 (fun id -> (o, id))) [ 0; 1; 2; 3 ]
      @ Hashtbl.fold (fun k _ acc -> k :: acc) model []
    in
    !ok
    && List.for_all (agrees !s model ~now:!now) probes
    && List.for_all
         (fun (set, model, now) -> List.for_all (agrees set model ~now) probes)
         !frozen
  in
  QCheck.Test.make ~name:"idset agrees with a table of insert times" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 1 200) gen_op))
    run

type rmsg = Tracked of int | Delivered of int

(* The transport's dedup state stays bounded: a two-node cell that sends
   200,000 tokens, one every half millisecond, retains about 22k words in
   all.  The token table the bitmap replaced held about 464k here: a 30 s
   window of entries at about 7 words each. *)
let test_idset_reliable_retention () =
  let open Sss_sim in
  let open Sss_net in
  let sim = Sim.create () in
  let net =
    Network.create sim (Prng.create ~seed:1) ~nodes:2 ~config:Network.default_config
  in
  let rel =
    Reliable.create sim net ~retry:{ Reliable.initial = 0.5e-3; max = 8e-3; limit = 64 }
  in
  let processed = ref 0 in
  Network.set_handler net 1 (fun ~src -> function
    | Tracked token ->
        Network.send net ~src:1 ~dst:src (Delivered token);
        if Reliable.receive rel token then incr processed
    | Delivered _ -> ());
  Network.set_handler net 0 (fun ~src:_ -> function
    | Delivered token -> Reliable.delivered rel token
    | Tracked _ -> ());
  let sent = ref 0 in
  let rec pump () =
    if !sent < 200_000 then begin
      incr sent;
      Reliable.send rel ~src:0 ~dst:1 (fun token -> Tracked token);
      Sim.schedule sim ~delay:0.5e-3 pump
    end
  in
  pump ();
  Sim.run sim;
  Alcotest.(check int) "every token processed once" 200_000 !processed;
  let words = Obj.reachable_words (Obj.repr rel) in
  Alcotest.(check bool) (Printf.sprintf "cell retains %d words" words) true (words < 65_536)

let () =
  Alcotest.run "data"
    [
      ( "vclock",
        [
          Alcotest.test_case "basics" `Quick test_vclock_basics;
          Alcotest.test_case "order" `Quick test_vclock_order;
          Alcotest.test_case "max" `Quick test_vclock_max;
          Alcotest.test_case "to_array copies" `Quick test_vclock_to_array_copies;
          QCheck_alcotest.to_alcotest vclock_lattice_laws;
        ] );
      ("ids", [ Alcotest.test_case "generator" `Quick test_ids_gen ]);
      ( "mvstore",
        [
          Alcotest.test_case "genesis" `Quick test_mvstore_genesis;
          Alcotest.test_case "install order" `Quick test_mvstore_install_order;
          Alcotest.test_case "select" `Quick test_mvstore_select;
          Alcotest.test_case "truncate" `Quick test_mvstore_truncate;
          Alcotest.test_case "long-chain truncate" `Quick test_mvstore_long_chain_truncate;
          Alcotest.test_case "arena recycling" `Quick test_mvstore_arena_recycling;
          QCheck_alcotest.to_alcotest mvstore_matches_model;
        ] );
      ( "squeue",
        [
          Alcotest.test_case "ordering" `Quick test_squeue_ordering;
          Alcotest.test_case "idempotent insert" `Quick test_squeue_idempotent_insert;
          Alcotest.test_case "remove" `Quick test_squeue_remove;
          QCheck_alcotest.to_alcotest squeue_sorted_property;
        ] );
      ( "commitq",
        [
          Alcotest.test_case "order and head" `Quick test_commitq_order_and_head;
          Alcotest.test_case "duplicate put" `Quick test_commitq_duplicate_put_rejected;
          Alcotest.test_case "update missing" `Quick test_commitq_update_missing_is_noop;
        ] );
      ( "nlog",
        [
          Alcotest.test_case "most recent" `Quick test_nlog_most_recent;
          Alcotest.test_case "visible max unconstrained" `Quick test_nlog_visible_max_unconstrained;
          Alcotest.test_case "visible max bounded" `Quick test_nlog_visible_max_bounded;
          Alcotest.test_case "visible max cutoff" `Quick test_nlog_visible_max_cutoff;
          Alcotest.test_case "prune" `Quick test_nlog_prune;
        ] );
      ( "locks",
        [
          Alcotest.test_case "shared compatible" `Quick test_locks_shared_compatible;
          Alcotest.test_case "exclusive blocks shared" `Quick test_locks_exclusive_blocks_shared;
          Alcotest.test_case "waiter wakes" `Quick test_locks_waiter_wakes;
          Alcotest.test_case "acquire_all rollback" `Quick test_locks_acquire_all_rollback;
          Alcotest.test_case "read/write overlap" `Quick test_locks_acquire_all_read_write_overlap;
        ] );
      ( "vcodec",
        [
          QCheck_alcotest.to_alcotest vcodec_roundtrip;
          Alcotest.test_case "compresses small deltas" `Quick test_vcodec_compresses_small_deltas;
          Alcotest.test_case "size mismatch" `Quick test_vcodec_size_mismatch;
        ] );
      ( "idset",
        [
          Alcotest.test_case "retirement" `Quick test_idset_retirement;
          QCheck_alcotest.to_alcotest idset_matches_model;
          Alcotest.test_case "reliable retention" `Quick test_idset_reliable_retention;
        ] );
      ( "replication",
        [
          Alcotest.test_case "degree" `Quick test_replication_degree;
          Alcotest.test_case "keys_at consistent" `Quick test_replication_keys_at_consistent;
          Alcotest.test_case "spread" `Quick test_replication_spread;
          Alcotest.test_case "bad degree" `Quick test_replication_bad_degree;
        ] );
    ]
