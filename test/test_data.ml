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

(* Every key of the array is at its genesis version from [create] on;
   an install prepends to it and leaves the other keys alone. *)
let test_mvstore_genesis () =
  let keys = [| 3; 7; 9 |] in
  let s = Mvstore.create ~nodes:2 ~keys in
  Alcotest.(check int) "a version a key" 3 (Mvstore.version_count s);
  Alcotest.(check int) "a chain a key" 3 (Mvstore.chains s);
  Array.iter
    (fun k ->
      let v = Mvstore.last s k in
      Alcotest.(check string) "genesis value" (Ids.boot_value k) (Mvstore.slot_value s v);
      Alcotest.(check bool) "genesis writer" true
        (Ids.equal_txn (Mvstore.slot_writer s v) Ids.genesis);
      Alcotest.(check bool) "genesis writer (packed)" true
        (Mvstore.slot_writer_is s v Ids.genesis);
      match Mvstore.chain s k with
      | [ g ] ->
          Alcotest.(check bool) "genesis clock is zero" true
            (Vclock.equal g.Mvstore.vc (Vclock.zero 2))
      | _ -> Alcotest.fail "genesis chain of one")
    keys;
  Mvstore.install s 7 ~value:"v1" ~vc:(vc [ 1; 0 ]) ~writer:(tx 0 1);
  Alcotest.(check string) "install on top" "v1" (Mvstore.slot_value s (Mvstore.last s 7));
  Alcotest.(check int) "genesis kept below" 2 (List.length (Mvstore.chain s 7));
  Alcotest.(check string) "neighbours untouched" "init:9" (Mvstore.slot_value s (Mvstore.last s 9))

(* A key resolves to its position in the array: the first, the last and
   a middle one; a key outside it, below, between or above, is absent. *)
let test_mvstore_key_array () =
  let keys = [| 2; 5; 11; 40; 41; 90 |] in
  let s = Mvstore.create ~nodes:1 ~keys in
  Array.iteri
    (fun i k ->
      Mvstore.install s k ~value:(string_of_int i) ~vc:(vc [ i + 1 ]) ~writer:(tx 0 (i + 1)))
    [| 2; 11; 90 |];
  List.iter
    (fun (k, want) ->
      Alcotest.(check string) (Printf.sprintf "key %d" k) want
        (Mvstore.slot_value s (Mvstore.last s k)))
    [ (2, "0"); (11, "1"); (90, "2"); (41, "init:41") ];
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "key %d absent" k) false (Mvstore.mem s k);
      Alcotest.check_raises (Printf.sprintf "last %d" k) Not_found (fun () ->
          ignore (Mvstore.last s k : Mvstore.slot));
      Alcotest.check_raises (Printf.sprintf "select %d" k) Not_found (fun () ->
          ignore (Mvstore.select s k ~skip:(fun _ -> false) : Mvstore.slot)))
    [ 0; 1; 3; 39; 42; 91; max_int ];
  Alcotest.(check bool) "present keys" true (Array.for_all (Mvstore.mem s) keys);
  Alcotest.(check (list int)) "keys" (Array.to_list keys) (Mvstore.keys s);
  (* the lookup is a closure-free binary search: no allocation *)
  let w0 = Sss_sim.Sim.allocated_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Mvstore.last s 41))
  done;
  let w = Sss_sim.Sim.allocated_words () -. w0 in
  if w > 32. then Alcotest.failf "1,000 lookups allocated %.0f words" w;
  (* an unsorted array with a repeat: the store sorts a private copy *)
  let raw = [| 9; 3; 7; 3 |] in
  let u = Mvstore.create ~nodes:1 ~keys:raw in
  Alcotest.(check (list int)) "sorted, deduplicated" [ 3; 7; 9 ] (Mvstore.keys u);
  Alcotest.(check int) "one genesis a distinct key" 3 (Mvstore.version_count u);
  Alcotest.(check (array int)) "caller's array untouched" [| 9; 3; 7; 3 |] raw

(* A checkpoint image holds the head and state columns, not the keys, and
   a fresh store over the same array restores to the same contents. *)
let test_mvstore_image_shares_keys () =
  let n = 10_000 in
  let keys = Array.init n (fun i -> (3 * i) + 1) in
  let s = Mvstore.create ~nodes:2 ~keys in
  let im0 = Mvstore.image_of s in
  let words = Obj.reachable_words (Obj.repr im0) in
  if words > n + (n / 8) + 64 then
    Alcotest.failf "an image of %d idle keys holds %d words" n words;
  for i = 1 to 300 do
    let k = keys.((i * 37) mod n) in
    Mvstore.install s k ~value:(Printf.sprintf "v%d" i) ~vc:(vc [ i; i / 2 ])
      ~writer:(tx (i mod 2) i)
  done;
  ignore (Mvstore.truncate_covered s keys.(37) ~watermark:(vc [ 150; 75 ]) : int);
  let im = Mvstore.image_of s in
  let fresh = Mvstore.create ~nodes:2 ~keys in
  Mvstore.restore fresh im;
  let same =
    Array.for_all
      (fun k ->
        let a = Mvstore.chain s k and b = Mvstore.chain fresh k in
        List.length a = List.length b
        && List.for_all2
             (fun (x : Mvstore.version) (y : Mvstore.version) ->
               String.equal x.value y.value && Vclock.equal x.vc y.vc
               && Ids.equal_txn x.writer y.writer)
             a b)
      keys
  in
  Alcotest.(check bool) "every chain restored" true same;
  Alcotest.(check int) "version count" (Mvstore.version_count s) (Mvstore.version_count fresh);
  Alcotest.(check int) "image price" (Mvstore.image_bytes im)
    (Mvstore.image_bytes (Mvstore.image_of fresh));
  Alcotest.check_raises "a store over other keys"
    (Invalid_argument "Mvstore.restore: image of a differently shaped store") (fun () ->
      Mvstore.restore (Mvstore.create ~nodes:2 ~keys:[| 1 |]) im)

(* [create] over a key array allocates the head column and a state byte
   a key, and a constant besides: nothing a key is hashed or boxed. *)
let test_mvstore_create_allocation () =
  let n = 100_000 in
  let keys = Array.init n Fun.id in
  let w0 = Sss_sim.Sim.allocated_words () in
  let s = Mvstore.create ~nodes:4 ~keys in
  let w = Sss_sim.Sim.allocated_words () -. w0 in
  ignore (Sys.opaque_identity s);
  if w > float_of_int (n + (n / 8) + 64) then
    Alcotest.failf "create over %d keys allocated %.0f words" n w

let test_mvstore_install_order () =
  let s = Mvstore.create ~nodes:2 ~keys:[| 1 |] in
  Mvstore.install s 1 ~value:"v1" ~vc:(vc [ 1; 0 ]) ~writer:(tx 0 1);
  Mvstore.install s 1 ~value:"v2" ~vc:(vc [ 2; 0 ]) ~writer:(tx 0 2);
  Alcotest.(check string) "last is newest" "v2" (Mvstore.slot_value s (Mvstore.last s 1));
  Alcotest.(check int) "chain length" 3 (List.length (Mvstore.chain s 1))

let test_mvstore_select () =
  let s = Mvstore.create ~nodes:2 ~keys:[| 1 |] in
  Mvstore.install s 1 ~value:"v1" ~vc:(vc [ 1; 0 ]) ~writer:(tx 0 1);
  Mvstore.install s 1 ~value:"v2" ~vc:(vc [ 2; 0 ]) ~writer:(tx 0 2);
  let bound = vc [ 1; 5 ] in
  let chosen = Mvstore.select s 1 ~skip:(fun cvc -> not (Vclock.leq cvc bound)) in
  Alcotest.(check string) "bounded select" "v1" (Mvstore.slot_value s chosen);
  (* Everything skipped: falls back to oldest. *)
  let oldest = Mvstore.select s 1 ~skip:(fun _ -> true) in
  Alcotest.(check string) "fallback to oldest" "init:1" (Mvstore.slot_value s oldest)

let test_mvstore_truncate () =
  let s = Mvstore.create ~nodes:1 ~keys:[| 1 |] in
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

(* A 200k-version tail freed in one truncate: the store walks the chain
   iteratively, so this must not blow the stack (the earlier list store
   used a non-tail-recursive take here). *)
let test_mvstore_long_chain_truncate () =
  let s = Mvstore.create ~nodes:1 ~keys:[| 0 |] in
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

(* Slot recycling: drive identical install/GC cycles and require the
   resident footprint and the free-list occupancy to sit exactly where they
   were once steady state is reached.  A leak (a slot freed never or twice)
   shows up as column growth or free-list drift. *)
let test_mvstore_arena_recycling () =
  let nodes = 4 and nk = 8 in
  let s = Mvstore.create ~nodes ~keys:(Array.init nk Fun.id) in
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
  Alcotest.(check int) "slot free list back to baseline" m0.Mvstore.free_slots
    m1.Mvstore.free_slots

(* The store keeps the installed clock itself: [chain] and [select]'s
   callback see it physically, and a write set's keys share it, so the
   gauge counts one clock for a two-key commit. *)
let test_mvstore_shares_clocks () =
  let nodes = 4 in
  let s = Mvstore.create ~nodes ~keys:[| 1; 2 |] in
  let cvc = vc [ 3; 1; 0; 2 ] in
  Mvstore.install s 1 ~value:"a" ~vc:cvc ~writer:(tx 0 1);
  Mvstore.install s 2 ~value:"a" ~vc:cvc ~writer:(tx 0 1);
  (match Mvstore.chain s 1 with
  | v :: _ -> Alcotest.(check bool) "chain returns the installed clock" true (v.Mvstore.vc == cvc)
  | [] -> Alcotest.fail "empty chain");
  let seen = ref false in
  ignore (Mvstore.select s 2 ~skip:(fun c -> seen := c == cvc; false) : Mvstore.slot);
  Alcotest.(check bool) "select sees the installed clock" true !seen;
  Alcotest.(check int) "one clock for the write set" (nodes + 1)
    (Mvstore.mem_words s).Mvstore.clock_words

(* A slot freed by the collector drops its clock: once the node log and
   the CommitQ let go of a superseded version's clock, so does the store. *)
let test_mvstore_free_drops_clock () =
  let s = Mvstore.create ~nodes:2 ~keys:[| 1 |] in
  let old = Weak.create 1 in
  let install_old () =
    let c = vc [ 1; 0 ] in
    Weak.set old 0 (Some c);
    Mvstore.install s 1 ~value:"old" ~vc:c ~writer:(tx 0 1)
  in
  install_old ();
  Mvstore.install s 1 ~value:"new" ~vc:(vc [ 2; 0 ]) ~writer:(tx 0 2);
  Alcotest.(check int) "old version and genesis dropped" 2
    (Mvstore.truncate_covered s 1 ~watermark:(vc [ 2; 0 ]));
  Gc.full_major ();
  Alcotest.(check bool) "old clock collected" false (Weak.check old 0);
  ignore (Sys.opaque_identity s)

(* What the store costs besides the values and the clocks it shares with
   the node log: four slot columns, the key index and the implicit
   genesis, under five words a version for 1,000 keys of four installs
   each.  A per-store copy of every clock (an arena cell a version, since
   these neighbours differ in every entry) kept more than 11 more. *)
let test_mvstore_retention () =
  let nodes = 10 and keys = 1000 and per_key = 4 in
  let n = keys * per_key in
  let clocks =
    Array.init n (fun i ->
        vc (List.init nodes (fun w -> if w = 0 then i + 1 else ((i * 7) + (w * 13)) mod 97)))
  in
  let value = "v" in
  let s = Mvstore.create ~nodes ~keys:(Array.init keys Fun.id) in
  Array.iteri (fun i c -> Mvstore.install s (i mod keys) ~value ~vc:c ~writer:(tx 0 (i + 1))) clocks;
  let versions = Mvstore.version_count s in
  Alcotest.(check int) "5,000 versions" 5000 versions;
  let words =
    Obj.reachable_words (Obj.repr (s, clocks, value))
    - Obj.reachable_words (Obj.repr (clocks, value))
    - 1
  in
  let per_version = float_of_int words /. float_of_int versions in
  if per_version > 5.0 then
    Alcotest.failf "%.2f words a version besides values and clocks" per_version

(* Model-based battery: random op interleavings replayed against both the
   store and a boxed list-of-records reference, comparing every chain
   (values, clocks, writers) and the image byte price after each step.
   This pins implicit genesis, slot reuse, the sweep cursor and the
   checkpoint size model to the specification a list store implements
   directly.  Each case builds its store over a random strictly ascending
   key array; ops name keys by position, and lookups of keys outside the
   array must miss. *)

type mver = { mvalue : string; mvc : int array; mwriter : Ids.txn }

type mop =
  | MInstall of int * int array * (int * int)
  | MInstall2 of int * int * int array * (int * int)  (* shared-clock write set *)
  | MSelect of int * int array
  | MCovered of int * int array
  | MSweep of int array * int
  | MRoundtrip
  | MLookup of int  (* any key, in the array or not *)

let mop_to_string op =
  let arr a = "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int a)) ^ "]" in
  match op with
  | MInstall (k, c, (w, l)) -> Printf.sprintf "install k%d %s T<%d.%d>" k (arr c) w l
  | MInstall2 (k1, k2, c, (w, l)) ->
      Printf.sprintf "install2 k%d k%d %s T<%d.%d>" k1 k2 (arr c) w l
  | MSelect (k, b) -> Printf.sprintf "select k%d %s" k (arr b)
  | MCovered (k, w) -> Printf.sprintf "covered k%d %s" k (arr w)
  | MSweep (w, b) -> Printf.sprintf "sweep %s budget:%d" (arr w) b
  | MRoundtrip -> "roundtrip"
  | MLookup k -> Printf.sprintf "lookup %d" k

let mvstore_matches_model =
  let nodes = 4 and max_keys = 6 in
  let zeros () = Array.make nodes 0 in
  let arr_leq a b =
    let ok = ref true in
    Array.iteri (fun i x -> if x > b.(i) then ok := false) a;
    !ok
  in
  let gen =
    let open QCheck.Gen in
    (* mostly small entries; a few wide ones give two-byte varint deltas *)
    let clock = array_size (return nodes) (frequency [ (4, int_bound 6); (1, int_bound 200) ]) in
    let writer = pair (int_bound (nodes - 1)) (int_range 1 99) in
    (* a position, reduced modulo the case's key count *)
    let k = int_bound (max_keys - 1) in
    let op =
      frequency
        [
          (6, map3 (fun k c w -> MInstall (k, c, w)) k clock writer);
          (2, map3 (fun (k1, k2) c w -> MInstall2 (k1, k2, c, w)) (pair k k) clock writer);
          (4, map2 (fun k b -> MSelect (k, b)) k clock);
          (2, map2 (fun k w -> MCovered (k, w)) k clock);
          (2, map2 (fun w b -> MSweep (w, b)) clock (int_range 1 6));
          (1, return MRoundtrip);
          (1, map (fun k -> MLookup k) (int_bound 40));
        ]
    in
    let keys =
      map
        (fun l -> Array.of_list (List.sort_uniq Int.compare l))
        (list_size (int_range 1 max_keys) (int_bound 40))
    in
    pair keys (list_size (int_bound 50) op)
  in
  let print (keys, ops) =
    Printf.sprintf "keys [%s]: %s"
      (String.concat ";" (Array.to_list (Array.map string_of_int keys)))
      (String.concat "; " (List.map mop_to_string ops))
  in
  let run (keys, ops) =
    let nkeys = Array.length keys in
    let s = Mvstore.create ~nodes ~keys in
    let key i = keys.(i) in
    let pos i = i mod nkeys in
    let ops =
      List.map
        (function
          | MInstall (i, c, w) -> MInstall (pos i, c, w)
          | MInstall2 (i1, i2, c, w) -> MInstall2 (pos i1, pos i2, c, w)
          | MSelect (i, b) -> MSelect (pos i, b)
          | MCovered (i, w) -> MCovered (pos i, w)
          | (MSweep _ | MRoundtrip | MLookup _) as op -> op)
        ops
    in
    (* the key array's order fixes the handle order the sweep cursor walks *)
    let model =
      Array.map
        (fun k -> [ { mvalue = Ids.boot_value k; mvc = zeros (); mwriter = Ids.genesis } ])
        keys
    in
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
    (* the image byte model, priced from the list model: heads raw, older
       clocks as the sparse delta against their newer neighbour when that
       is smaller, implicit genesis versions free *)
    let ref_bytes () =
      let older_bytes ~newer older =
        let k = ref 0 and b = ref 0 in
        Array.iteri
          (fun w o ->
            let d = newer.(w) - o in
            if d <> 0 then begin
              incr k;
              b := !b + 1 + Vcodec.varint_size d
            end)
          older;
        if 1 + (2 * !k) < nodes + 1 then !b else 8 * nodes
      in
      let rec chain_bytes = function
        | [] -> 0
        | v :: older ->
            let clock =
              match older with
              | o :: _ when not (Ids.equal_txn o.mwriter Ids.genesis) ->
                  older_bytes ~newer:v.mvc o.mvc
              | _ -> 0
            in
            12 + String.length v.mvalue + clock + chain_bytes older
      in
      Array.fold_left
        (fun acc ch ->
          match List.filter (fun v -> not (Ids.equal_txn v.mwriter Ids.genesis)) ch with
          | [] -> acc
          | explicit -> acc + (8 * nodes) + chain_bytes explicit)
        (64 + (17 * nkeys))
        model
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
      && Mvstore.image_bytes (Mvstore.image_of s) = ref_bytes ()
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
             installed twice, as the CommitQ drain does *)
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
      | MRoundtrip ->
          let im = Mvstore.image_of s in
          Mvstore.restore s im;
          Mvstore.image_bytes im > 0
      | MLookup k -> (
          let present = Array.mem k keys in
          Bool.equal (Mvstore.mem s k) present
          &&
          match Mvstore.last s k with
          | (_ : Mvstore.slot) -> present
          | exception Not_found -> not present)
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
  let reader_sids = List.map (fun e -> e.Squeue.sid) (Squeue.readers q) in
  Alcotest.(check (list int)) "readers sorted" [ 3; 7 ] reader_sids

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

(* A restored log's prefix maxima start from the image's floor: every
   query reads the pruned entry's contribution, as before the round trip. *)
let test_nlog_restore_floor () =
  let l = Nlog.create ~nodes:2 ~node:0 in
  Nlog.add l ~txn:(tx 0 1) ~vc:(vc [ 1; 5 ]) ~ws:[ 1 ];
  Nlog.add l ~txn:(tx 0 2) ~vc:(vc [ 2; 0 ]) ~ws:[ 2 ];
  Alcotest.(check int) "genesis and [1,5] pruned" 2 (Nlog.prune_covered l ~watermark:(vc [ 1; 5 ]));
  let r = Nlog.create ~nodes:2 ~node:0 in
  Nlog.restore r (Nlog.image l);
  let reads name got =
    Alcotest.(check (list int)) name [ 2; 5 ] (Array.to_list (Vclock.to_array got))
  in
  List.iter
    (fun (which, log) ->
      reads (which ^ " committed max") (Nlog.committed_max log);
      reads (which ^ " unconstrained")
        (Nlog.visible_max log ~has_read:[| false; false |] ~bound:(vc [ 0; 0 ]) ~cutoff:max_int);
      reads (which ^ " constrained")
        (Nlog.visible_max log ~has_read:[| false; true |] ~bound:(vc [ 0; 9 ]) ~cutoff:max_int))
    [ ("imaged", l); ("restored", r) ];
  Alcotest.(check int) "restored as imaged" (Nlog.size l) (Nlog.size r);
  Nlog.add r ~txn:(tx 0 3) ~vc:(vc [ 3; 0 ]) ~ws:[];
  Alcotest.(check int) "a later prune" 1 (Nlog.prune_covered r ~watermark:(vc [ 2; 0 ]));
  Alcotest.(check (list int)) "floor survives a later prune" [ 2; 5 ]
    (Array.to_list (Vclock.to_array (Nlog.floor r)))

(* One commit clock is shared by every participant's log, so what a log
   costs is what it keeps besides the clocks: about three words an entry
   plus its write-set keys and a prefix-maximum row per 16 entries.  A
   record, a boxed txn, a key list and a prefix-maximum row per entry kept
   about 24. *)
let test_nlog_retention () =
  let nodes = 10 and n = 5000 in
  let clocks =
    Array.init n (fun i ->
        vc (List.init nodes (fun w -> if w = 0 then i + 1 else ((i * 7) + (w * 13)) mod 97)))
  in
  let l = Nlog.create ~nodes ~node:0 in
  Array.iteri (fun i c -> Nlog.add l ~txn:(tx 0 (i + 1)) ~vc:c ~ws:[ i mod 24 ]) clocks;
  let words =
    Obj.reachable_words (Obj.repr (l, clocks)) - Obj.reachable_words (Obj.repr clocks) - 3
  in
  let per_entry = float_of_int words /. float_of_int n in
  if per_entry > 6.0 then Alcotest.failf "%.1f words an entry besides the clocks" per_entry

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

(* Size pins: zig-zag doubles each entry, so 63 is the last one-byte
   value and 8191 the last two-byte one. *)
let test_vcodec_sizes () =
  let clock = vc [ 0; 63; 64; 8191; 8192 ] in
  Alcotest.(check int) "varint size" 9 (Vcodec.size clock);
  Alcotest.(check int) "raw size" 40 (Vcodec.raw_size clock);
  Alcotest.(check int) "empty clock" 0 (Vcodec.size (Vclock.zero 0));
  Alcotest.(check (list int)) "negative values zig-zag" [ 1; 1; 2 ]
    (List.map Vcodec.varint_size [ -1; -64; -65 ])

let test_vcodec_compresses_small_deltas () =
  let next = vc [ 1; 0; 2; 0; 1 ] in
  Alcotest.(check int) "one byte per small entry" 5 (Vcodec.size next);
  let big = vc [ 1001; 2000; 3002; 4000; 5001 ] in
  Alcotest.(check bool) "varints beat raw" true (Vcodec.size big < Vcodec.raw_size big)

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
          Alcotest.test_case "key array" `Quick test_mvstore_key_array;
          Alcotest.test_case "image shares the key array" `Quick test_mvstore_image_shares_keys;
          Alcotest.test_case "create allocation" `Quick test_mvstore_create_allocation;
          Alcotest.test_case "install order" `Quick test_mvstore_install_order;
          Alcotest.test_case "select" `Quick test_mvstore_select;
          Alcotest.test_case "truncate" `Quick test_mvstore_truncate;
          Alcotest.test_case "long-chain truncate" `Quick test_mvstore_long_chain_truncate;
          Alcotest.test_case "arena recycling" `Quick test_mvstore_arena_recycling;
          Alcotest.test_case "shares installed clocks" `Quick test_mvstore_shares_clocks;
          Alcotest.test_case "retention per version" `Quick test_mvstore_retention;
          Alcotest.test_case "freed slot drops its clock" `Quick test_mvstore_free_drops_clock;
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
          Alcotest.test_case "restore keeps the floor" `Quick test_nlog_restore_floor;
          Alcotest.test_case "retention per entry" `Quick test_nlog_retention;
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
          Alcotest.test_case "size pins" `Quick test_vcodec_sizes;
          Alcotest.test_case "compresses small deltas" `Quick test_vcodec_compresses_small_deltas;
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
