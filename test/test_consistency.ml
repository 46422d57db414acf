(* Tests for the history recorder and the DSG-based consistency checker,
   using hand-crafted histories exhibiting classic anomalies. *)

open Sss_data
open Sss_consistency
module Store = Sss_experiments.Store
module Spec = Sss_experiments.Spec

let tx node local : Ids.txn = { node; local }

let mk events =
  let h = History.create () in
  List.iteri (fun i e -> History.record h ~at:(float_of_int i) e) events;
  h

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail (Printf.sprintf "%s should pass: %s" what msg)

let check_err what = function
  | Ok () -> Alcotest.fail (Printf.sprintf "%s should detect a violation" what)
  | Error _ -> ()

let t1 = tx 0 1
let t2 = tx 1 1
let t3 = tx 2 1
let t4 = tx 3 1

let test_serial_history_passes () =
  (* T1 writes k0; T2 then reads it and overwrites it. Strictly serial. *)
  let h =
    mk
      History.
        [
          Begin { txn = t1; ro = false; node = 0 };
          Install { txn = t1; key = 0 };
          Commit { txn = t1; ws = [] };
          Begin { txn = t2; ro = false; node = 1 };
          Read { txn = t2; key = 0; writer = t1 };
          Install { txn = t2; key = 0 };
          Commit { txn = t2; ws = [] };
        ]
  in
  check_ok "external consistency" (Checker.external_consistency h);
  check_ok "serializability" (Checker.serializability h);
  check_ok "no lost updates" (Checker.no_lost_updates h);
  check_ok "ro abort free" (Checker.read_only_abort_free h);
  Alcotest.(check int) "committed" 2 (Checker.committed_count h);
  Alcotest.(check int) "aborted" 0 (Checker.aborted_count h)

let test_stale_read_after_completion () =
  (* T1 installs and commits; T2 begins afterwards but reads the genesis
     version.  Serializable (T2 serializes first) but NOT external
     consistent when both clients sit on the same node — and flagged by the
     strict (global real-time) check even across nodes. *)
  let h node2 =
    mk
      History.
        [
          Begin { txn = t1; ro = false; node = 0 };
          Install { txn = t1; key = 0 };
          Commit { txn = t1; ws = [] };
          Begin { txn = t2; ro = true; node = node2 };
          Read { txn = t2; key = 0; writer = Ids.genesis };
          Commit { txn = t2; ws = [] };
        ]
  in
  check_ok "serializability" (Checker.serializability (h 0));
  check_err "same-session external consistency" (Checker.external_consistency (h 0));
  (* Cross-node, non-communicating: the session check accepts it... *)
  check_ok "cross-node session check" (Checker.external_consistency (h 1));
  (* ...but the strict global real-time check does not. *)
  check_err "strict external consistency" (Checker.external_consistency_strict (h 1))

let test_write_skew_detected () =
  let h =
    mk
      History.
        [
          Begin { txn = t1; ro = false; node = 0 };
          Begin { txn = t2; ro = false; node = 1 };
          Read { txn = t1; key = 0; writer = Ids.genesis };
          Read { txn = t2; key = 1; writer = Ids.genesis };
          Install { txn = t1; key = 1 };
          Install { txn = t2; key = 0 };
          Commit { txn = t1; ws = [] };
          Commit { txn = t2; ws = [] };
        ]
  in
  check_err "write skew" (Checker.serializability h);
  check_err "write skew (external)" (Checker.external_consistency h);
  (* Write skew is not a lost update: neither read the key it wrote. *)
  check_ok "no lost updates" (Checker.no_lost_updates h)

let test_lost_update_detected () =
  let h =
    mk
      History.
        [
          Begin { txn = t1; ro = false; node = 0 };
          Begin { txn = t2; ro = false; node = 1 };
          Read { txn = t1; key = 0; writer = Ids.genesis };
          Read { txn = t2; key = 0; writer = Ids.genesis };
          Install { txn = t1; key = 0 };
          Install { txn = t2; key = 0 };
          Commit { txn = t1; ws = [] };
          Commit { txn = t2; ws = [] };
        ]
  in
  check_err "lost update" (Checker.no_lost_updates h);
  check_err "lost update is not serializable" (Checker.serializability h)

let test_long_fork_detected () =
  (* Walter's PSI admits this: two read-only transactions observe two
     non-conflicting writers in opposite orders (Adya's anomaly, the exact
     situation Fig. 2 of the paper prevents). *)
  let h =
    mk
      History.
        [
          Begin { txn = t1; ro = false; node = 0 };
          Begin { txn = t2; ro = false; node = 1 };
          Install { txn = t1; key = 0 };
          Install { txn = t2; key = 1 };
          Begin { txn = t3; ro = true; node = 2 };
          Read { txn = t3; key = 0; writer = t1 };
          Read { txn = t3; key = 1; writer = Ids.genesis };
          Begin { txn = t4; ro = true; node = 3 };
          Read { txn = t4; key = 0; writer = Ids.genesis };
          Read { txn = t4; key = 1; writer = t2 };
          Commit { txn = t1; ws = [] };
          Commit { txn = t2; ws = [] };
          Commit { txn = t3; ws = [] };
          Commit { txn = t4; ws = [] };
        ]
  in
  check_err "long fork" (Checker.serializability h);
  (* But each read-modify-write is intact, so PSI-style checks pass. *)
  check_ok "no lost updates" (Checker.no_lost_updates h)

let test_aborted_txns_excluded () =
  let h =
    mk
      History.
        [
          Begin { txn = t1; ro = false; node = 0 };
          Read { txn = t1; key = 0; writer = Ids.genesis };
          Abort { txn = t1 };
          Begin { txn = t2; ro = false; node = 1 };
          Install { txn = t2; key = 0 };
          Commit { txn = t2; ws = [] };
        ]
  in
  (* The aborted read of genesis would be a stale read if counted. *)
  check_ok "aborted excluded" (Checker.external_consistency h);
  Alcotest.(check int) "aborted counted" 1 (Checker.aborted_count h)

let test_read_only_abort_flagged () =
  let h =
    mk
      History.
        [ Begin { txn = t1; ro = true; node = 0 }; Abort { txn = t1 } ]
  in
  check_err "ro abort" (Checker.read_only_abort_free h);
  let h2 =
    mk History.[ Begin { txn = t1; ro = false; node = 0 }; Abort { txn = t1 } ]
  in
  check_ok "update abort fine" (Checker.read_only_abort_free h2)

let test_uncommitted_installer_constrains () =
  (* t1 installed but its external commit was not recorded (e.g. still parked
     in a snapshot-queue at the end of the run): it must still participate in
     dependency edges. *)
  let h =
    mk
      History.
        [
          Begin { txn = t1; ro = false; node = 0 };
          Install { txn = t1; key = 0 };
          Begin { txn = t2; ro = true; node = 1 };
          Read { txn = t2; key = 0; writer = t1 };
          Commit { txn = t2; ws = [] };
        ]
  in
  check_ok "partial run ok" (Checker.external_consistency h);
  let edges = Checker.dependency_edges h in
  Alcotest.(check bool) "wr edge from uncommitted installer" true
    (List.exists (fun (s, d, l) -> Ids.equal_txn s t1 && Ids.equal_txn d t2 && l = "wr") edges)

let test_dependency_edge_kinds () =
  let h =
    mk
      History.
        [
          Begin { txn = t1; ro = false; node = 0 };
          Install { txn = t1; key = 0 };
          Commit { txn = t1; ws = [] };
          Begin { txn = t2; ro = false; node = 1 };
          Read { txn = t2; key = 0; writer = t1 };
          Install { txn = t2; key = 0 };
          Commit { txn = t2; ws = [] };
          Begin { txn = t3; ro = true; node = 2 };
          Read { txn = t3; key = 0; writer = t1 };
          Commit { txn = t3; ws = [] };
        ]
  in
  let edges = Checker.dependency_edges h in
  let has s d l =
    List.exists (fun (a, b, lbl) -> Ids.equal_txn a s && Ids.equal_txn b d && lbl = l) edges
  in
  Alcotest.(check bool) "wr t1->t2" true (has t1 t2 "wr");
  Alcotest.(check bool) "ww t1->t2" true (has t1 t2 "ww");
  Alcotest.(check bool) "rw t3->t2 (t3 read the overwritten version)" true (has t3 t2 "rw");
  Alcotest.(check bool) "no self edges" false (List.exists (fun (a, b, _) -> Ids.equal_txn a b) edges)

let test_to_dot_renders_edges () =
  let h =
    mk
      History.
        [
          Begin { txn = t1; ro = false; node = 0 };
          Install { txn = t1; key = 0 };
          Commit { txn = t1; ws = [] };
          Begin { txn = t2; ro = true; node = 1 };
          Read { txn = t2; key = 0; writer = t1 };
          Commit { txn = t2; ws = [] };
        ]
  in
  let dot = Checker.to_dot h in
  let contains needle =
    let len = String.length needle in
    let rec go i =
      i + len <= String.length dot && (String.sub dot i len = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph dsg");
  Alcotest.(check bool) "wr edge" true (contains "label=\"wr\"");
  Alcotest.(check bool) "reader ellipse" true (contains "shape=ellipse");
  Alcotest.(check bool) "writer box" true (contains "shape=box")

let test_strict_vs_session_semantics () =
  (* same history, different real-time scopes: cross-node completion->begin
     precedence is only an edge under the strict check *)
  let cross =
    mk
      History.
        [
          Begin { txn = t1; ro = false; node = 0 };
          Install { txn = t1; key = 0 };
          Commit { txn = t1; ws = [] };
          Begin { txn = t2; ro = true; node = 1 };
          Read { txn = t2; key = 0; writer = Ids.genesis };
          Commit { txn = t2; ws = [] };
        ]
  in
  check_ok "session accepts cross-node" (Checker.external_consistency cross);
  check_err "strict rejects" (Checker.external_consistency_strict cross);
  (* overlapping transactions are unconstrained even under strict *)
  let overlapping =
    mk
      History.
        [
          Begin { txn = t1; ro = false; node = 0 };
          Begin { txn = t2; ro = true; node = 0 };
          Install { txn = t1; key = 0 };
          Commit { txn = t1; ws = [] };
          Read { txn = t2; key = 0; writer = Ids.genesis };
          Commit { txn = t2; ws = [] };
        ]
  in
  check_ok "overlap fine under strict" (Checker.external_consistency_strict overlapping)

let test_disabled_recorder () =
  let h = History.create ~enabled:false () in
  let words0 = Obj.reachable_words (Obj.repr h) in
  for i = 0 to 3000 do
    History.record h ~at:(float_of_int i) (History.Commit { txn = t1; ws = [ i ] })
  done;
  Alcotest.(check int) "nothing recorded" 0 (History.length h);
  Alcotest.(check int) "no block allocated" words0 (Obj.reachable_words (Obj.repr h));
  Alcotest.(check int) "no txns" 0 (Checker.txn_count h)

(* ---------- the columnar log ----------

   Every recorded event must read back exactly: its time bit for bit, its
   sequence number dense, its fields at the encoding's limits. *)

let max_local = (1 lsl 40) - 1
let max_node = (1 lsl 22) - 2  (* [Ids.pack] stores node + 1 *)
let max_key = (1 lsl 59) - 1

(* Every sequence starts with these: a genesis writer, empty and multi-key
   write sets, and ids and keys at the encoding's limits. *)
let corner_events =
  let far = tx max_node max_local in
  History.
    [
      Begin { txn = far; ro = true; node = max_node };
      Read { txn = far; key = max_key; writer = Ids.genesis };
      Read { txn = t1; key = 0; writer = far };
      Install { txn = far; key = max_key };
      Commit { txn = far; ws = [] };
      Commit { txn = t2; ws = [ 0; max_key; 7; 7 ] };
      Abort { txn = tx 0 max_local };
    ]

let gen_event =
  let open QCheck.Gen in
  let txn =
    oneof
      [
        return Ids.genesis;
        map2 tx (int_bound 7) (int_range 1 50);
        map2 tx (int_range (max_node - 3) max_node) (int_range (max_local - 3) max_local);
      ]
  in
  let key = oneof [ int_bound 20; int_range (max_key - 3) max_key ] in
  oneof
    [
      map3 (fun txn ro node -> History.Begin { txn; ro; node }) txn bool
        (oneof [ int_bound 7; return max_node ]);
      map3 (fun txn key writer -> History.Read { txn; key; writer }) txn key txn;
      map2 (fun txn key -> History.Install { txn; key }) txn key;
      map2 (fun txn ws -> History.Commit { txn; ws }) txn (list_size (int_bound 5) key);
      map (fun txn -> History.Abort { txn }) txn;
    ]

(* Short sequences, and ones spanning more than two 1,024-event blocks. *)
let gen_recorded =
  let open QCheck.Gen in
  let at = oneof [ map Int64.float_of_bits ui64; float; return (-0.0); return Float.nan ] in
  map
    (fun l -> List.mapi (fun i e -> (float_of_int i, e)) corner_events @ l)
    (list_size (oneof [ int_bound 10; int_range 2049 3500 ]) (pair at gen_event))

let same (s : History.stamped) (s' : History.stamped) =
  Int.equal s.seq s'.seq
  && Int64.equal (Int64.bits_of_float s.at) (Int64.bits_of_float s'.at)
  && s.event = s'.event

let history_round_trip =
  QCheck.Test.make ~name:"history round-trips every event" ~count:25
    (QCheck.make ~print:(fun l -> Printf.sprintf "%d events" (List.length l)) gen_recorded)
    (fun recorded ->
      let h = History.create () in
      List.iter (fun (at, e) -> History.record h ~at e) recorded;
      let expected = List.mapi (fun seq (at, event) -> { History.seq; at; event }) recorded in
      let evs = History.events h in
      let iterated = ref [] in
      History.iter h (fun ~seq ~at event -> iterated := { History.seq; at; event } :: !iterated);
      Int.equal (History.length h) (List.length expected)
      && Int.equal (List.length evs) (List.length expected)
      && List.for_all2 same expected evs
      && List.for_all2 same evs (List.rev !iterated))

(* The log keeps at most five words per event (three ints, the unboxed
   time, and a share of write sets and the one partly filled block). *)
let test_history_retention () =
  let h = History.create () in
  let n = ref 0 in
  let at () = float_of_int !n *. 1e-6 in
  while History.length h < 12_000 do
    incr n;
    let txn = tx (!n mod 8) !n in
    let k = !n mod 500 in
    History.record h ~at:(at ()) (History.Begin { txn; ro = !n mod 2 = 0; node = !n mod 8 });
    History.record h ~at:(at ()) (History.Read { txn; key = k; writer = tx 1 (!n / 2) });
    History.record h ~at:(at ()) (History.Read { txn; key = k + 1; writer = Ids.genesis });
    if !n mod 2 = 0 then History.record h ~at:(at ()) (History.Commit { txn; ws = [] })
    else if !n mod 7 = 0 then History.record h ~at:(at ()) (History.Abort { txn })
    else begin
      History.record h ~at:(at ()) (History.Install { txn; key = k });
      History.record h ~at:(at ()) (History.Install { txn; key = k + 1 });
      History.record h ~at:(at ()) (History.Commit { txn; ws = [ k; k + 1 ] })
    end
  done;
  let words = Obj.reachable_words (Obj.repr h) in
  let per_event = float_of_int words /. float_of_int (History.length h) in
  if per_event > 5.0 then
    Alcotest.failf "history retains %.2f words per event (%d words, %d events), bound 5"
      per_event words (History.length h)

(* ---------- mutation tests: a real history, minimally corrupted ----------

   The hand-crafted anomalies above prove the checker CAN reject; these
   prove it rejects when a single event of an actual checker-clean SSS
   execution is falsified.  Each mutation models a specific protocol bug:
   serving a read from a stale version, acknowledging commits out of order,
   and losing an install. *)

let real_spec =
  Spec.make ~ro:0.3 ~clients:3 ~duration:0.03 Sss
    { Sss_kv.Config.default with nodes = 2; replication_degree = 1; total_keys = 12; seed = 5 }

let real_history () = History.events (Spec.run real_spec).store.history

(* [what], naming the real history's run. *)
let real what = what ^ " -- " ^ Spec.to_string real_spec

let rebuild events =
  let h = History.create () in
  List.iter (fun (s : History.stamped) -> History.record h ~at:s.at s.event) events;
  h

let find_map_seq evs f = List.find_map f evs

let node_of evs txn =
  find_map_seq evs (fun (s : History.stamped) ->
      match s.event with
      | History.Begin { txn = t; node; _ } when Ids.equal_txn t txn -> Some node
      | _ -> None)

let begin_seq evs txn =
  find_map_seq evs (fun (s : History.stamped) ->
      match s.event with
      | History.Begin { txn = t; _ } when Ids.equal_txn t txn -> Some s.seq
      | _ -> None)

let commit_seq evs txn =
  find_map_seq evs (fun (s : History.stamped) ->
      match s.event with
      | History.Commit { txn = t; _ } when Ids.equal_txn t txn -> Some s.seq
      | _ -> None)

let committed evs txn = commit_seq evs txn <> None

(* A committed read of a non-genesis version whose writer committed — on
   the reader's own node — before the reader began: exactly the reads whose
   falsification a session-level external-consistency check must catch. *)
let find_anchored_read evs =
  find_map_seq evs (fun (s : History.stamped) ->
      match s.event with
      | History.Read { txn; key; writer }
        when (not (Ids.equal_txn writer Ids.genesis)) && committed evs txn -> (
          match (node_of evs txn, node_of evs writer, begin_seq evs txn, commit_seq evs writer)
          with
          | Some nr, Some nw, Some bs, Some cw when nr = nw && cw < bs ->
              Some (s.seq, txn, key, writer)
          | _ -> None)
      | _ -> None)

let test_mutation_stale_read () =
  let evs = real_history () in
  check_ok (real "unmutated history is clean") (Checker.external_consistency (rebuild evs));
  match find_anchored_read evs with
  | None -> Alcotest.fail (real "no anchored read in the real history (workload too small?)")
  | Some (seq, txn, key, _writer) ->
      (* the bug: a replica answers from a version the reader's own session
         has already seen superseded *)
      let mutated =
        List.map
          (fun (s : History.stamped) ->
            if s.seq = seq then
              { s with event = History.Read { txn; key; writer = Ids.genesis } }
            else s)
          evs
      in
      check_err "stale read rejected" (Checker.external_consistency (rebuild mutated))

let test_mutation_swapped_commit_order () =
  let evs = real_history () in
  check_ok (real "unmutated history is clean") (Checker.external_consistency (rebuild evs));
  match find_anchored_read evs with
  | None -> Alcotest.fail (real "no anchored read in the real history")
  | Some (_, reader, _, _writer) ->
      (* the bug: the coordinator acknowledges the reader's commit before
         the writer it depends on even began — recorded completion order
         contradicts the wr dependency *)
      let is_reader (s : History.stamped) =
        match s.event with
        | History.Begin { txn; _ } | History.Read { txn; _ } | History.Install { txn; _ }
        | History.Commit { txn; _ } | History.Abort { txn } ->
            Ids.equal_txn txn reader
      in
      let mine, rest = List.partition is_reader evs in
      let reordered =
        List.mapi
          (fun i (s : History.stamped) -> { s with at = float_of_int i })
          (mine @ rest)
      in
      check_err "inverted completion order rejected"
        (Checker.external_consistency (rebuild reordered))

let test_mutation_dropped_install () =
  let evs = real_history () in
  check_ok (real "unmutated history is clean") (Checker.no_lost_updates (rebuild evs));
  (* a committed RMW chain: R read W's version of a key and installed its
     own version of the same key *)
  let target =
    find_map_seq evs (fun (s : History.stamped) ->
        match s.event with
        | History.Read { txn = r; key; writer = w }
          when (not (Ids.equal_txn w Ids.genesis)) && committed evs r && committed evs w
               && List.exists
                    (fun (s2 : History.stamped) ->
                      match s2.event with
                      | History.Install { txn; key = k2 } -> Ids.equal_txn txn r && k2 = key
                      | _ -> false)
                    evs ->
            Some (key, w)
        | _ -> None)
  in
  match target with
  | None -> Alcotest.fail (real "no committed RMW chain in the real history")
  | Some (key, w) ->
      (* the bug: a replica loses the predecessor's install, so the chain's
         version order no longer contains the version the RMW observed *)
      let mutated =
        List.filter
          (fun (s : History.stamped) ->
            match s.event with
            | History.Install { txn; key = k } -> not (Ids.equal_txn txn w && k = key)
            | _ -> true)
          evs
      in
      check_err "dropped install rejected" (Checker.no_lost_updates (rebuild mutated))

(* the bug durability mode exists to prevent: a commit acknowledged to the
   client whose write never reached the store — the log record was lost in
   a crash but the ack escaped anyway *)
let tear_first_commit evs =
  let target =
    find_map_seq evs (fun (s : History.stamped) ->
        match s.event with
        | History.Commit { txn; ws = key :: _ } -> Some (txn, key)
        | _ -> None)
  in
  match target with
  | None -> Alcotest.fail (real "no committed update in the real history")
  | Some (txn, key) ->
      List.filter
        (fun (s : History.stamped) ->
          match s.event with
          | History.Install { txn = t; key = k } -> not (Ids.equal_txn t txn && k = key)
          | _ -> true)
        evs

let test_mutation_torn_commit () =
  let evs = real_history () in
  check_ok (real "unmutated history has no torn commits") (Checker.no_torn_commits (rebuild evs));
  check_err "torn commit rejected" (Checker.no_torn_commits (rebuild (tear_first_commit evs)))

(* [sss-cli verify]'s verdicts: a property the system does not promise is
   reported as such, never failed; a promised one that fails makes the
   exit status 1. *)
let test_verify_verdicts () =
  let verify system h = Store.verdicts system h ~quiescent:(Ok ()) in
  let evs = real_history () in
  Alcotest.(check int) (real "clean history") 0
    (Store.exit_code (verify Store.Walter (rebuild evs)));
  Alcotest.(check int)
    "torn commit under walter" 1
    (Store.exit_code (verify Store.Walter (rebuild (tear_first_commit evs))));
  (* a same-session stale read: serializable, not externally consistent *)
  let stale =
    mk
      History.
        [
          Begin { txn = t1; ro = false; node = 0 };
          Install { txn = t1; key = 0 };
          Commit { txn = t1; ws = [ 0 ] };
          Begin { txn = t2; ro = true; node = 0 };
          Read { txn = t2; key = 0; writer = Ids.genesis };
          Commit { txn = t2; ws = [] };
        ]
  in
  let walter = verify Store.Walter stale in
  Alcotest.(check bool)
    "walter: external consistency not promised" true
    (List.assoc "external-consistency" walter = Store.Not_promised);
  Alcotest.(check int) "walter accepts" 0 (Store.exit_code walter);
  Alcotest.(check int) "2pc rejects" 1 (Store.exit_code (verify Store.Twopc stale));
  Alcotest.(check int)
    "failed quiescence" 1
    (Store.exit_code (Store.verdicts Store.Walter (rebuild evs) ~quiescent:(Error "locks")))

(* recovered histories may re-install a version whose apply predated the
   crash (redo replay of a Decide redelivery): the duplicate must not
   corrupt the version order *)
let test_duplicate_install_accepted () =
  let evs = real_history () in
  let first_install =
    find_map_seq evs (fun (s : History.stamped) ->
        match s.event with History.Install _ -> Some s | _ -> None)
  in
  match first_install with
  | None -> Alcotest.fail (real "no install in the real history")
  | Some dup ->
      let duplicated = evs @ [ { dup with seq = List.length evs } ] in
      check_ok "duplicate install still clean" (Checker.external_consistency (rebuild duplicated));
      check_ok "duplicate install keeps updates" (Checker.no_lost_updates (rebuild duplicated));
      check_ok "duplicate install not torn" (Checker.no_torn_commits (rebuild duplicated))

(* ---------- GC safety ----------

   Online version GC must be invisible: it may only drop versions no live
   (or future) read-only snapshot can still select.  The first test mutates
   the STORE rather than the history — an over-eager truncate mid-run — and
   shows the checker catches the resulting anomalies, i.e. the safety net
   under which the real watermark GC runs is live.  The second shows the
   real GC is indeed invisible: the full committed history is byte-identical
   with GC on and off. *)

let gc_run ?(sabotage = false) ?(keys = 18) ?(ro = 0.5) ~gc ~seed () =
  let spec =
    Spec.make ~ro ~clients:4 ~duration:0.08 Sss
      { Sss_kv.Config.default with nodes = 3; replication_degree = 1; total_keys = keys; seed; gc }
  in
  (* the modelled bug: a GC that ignores the snapshot low-watermark and
     slashes every chain to its newest version, repeatedly, mid-run (an
     all-max_int watermark covers every version, keeping the newest) *)
  let sabotage_fiber (s : Store.t) =
    let everything = Vclock.of_array (Array.make 3 max_int) in
    Sss_sim.Sim.spawn s.sim (fun () ->
        for _ = 1 to 30 do
          Sss_sim.Sim.sleep s.sim 0.002;
          Array.iter
            (fun (n : Sss_kv.State.node) ->
              List.iter
                (fun k ->
                  ignore
                    (Mvstore.truncate_covered n.Sss_kv.State.store k ~watermark:everything
                      : int))
                (Mvstore.keys n.Sss_kv.State.store))
            (Option.get s.kv).Sss_kv.State.nodes
        done)
  in
  let r = Spec.run ~setup:(if sabotage then sabotage_fiber else ignore) spec in
  ((fun what -> what ^ " -- " ^ Spec.to_string spec), Option.get r.store.kv)

let checker_verdict cl =
  let h = Sss_kv.Kv.history cl in
  match
    ( Checker.external_consistency h,
      Checker.serializability h,
      Checker.no_lost_updates h )
  with
  | Ok (), Ok (), Ok () -> Ok ()
  | Error m, _, _ | _, Error m, _ | _, _, Error m -> Error m

let test_over_eager_truncate_caught () =
  (* same run without the sabotage fiber is checker-clean... *)
  let named, clean = gc_run ~gc:false ~seed:21 () in
  check_ok (named "un-sabotaged run is clean") (checker_verdict clean);
  (* ...and with it, paused read-only transactions are served versions
     newer than their snapshot bound, which the checker flags *)
  let named, sabotaged = gc_run ~sabotage:true ~gc:false ~seed:21 () in
  check_err (named "over-eager truncate caught") (checker_verdict sabotaged)

(* A printable fingerprint of the full event history: every begin, read
   (with the version's writer), install, commit and abort, in recorded
   order with sequence numbers and timestamps.  Byte-equality of two
   fingerprints is byte-equality of the two executions. *)
let history_fingerprint cl =
  let b = Buffer.create 65536 in
  List.iter
    (fun (s : History.stamped) ->
      let e =
        match s.event with
        | History.Begin { txn; ro; node } ->
            Printf.sprintf "B %s %b %d" (Ids.txn_to_string txn) ro node
        | History.Read { txn; key; writer } ->
            Printf.sprintf "R %s %d %s" (Ids.txn_to_string txn) key
              (Ids.txn_to_string writer)
        | History.Install { txn; key } ->
            Printf.sprintf "I %s %d" (Ids.txn_to_string txn) key
        | History.Commit { txn; ws } ->
            Printf.sprintf "C %s [%s]" (Ids.txn_to_string txn)
              (String.concat "," (List.map string_of_int ws))
        | History.Abort { txn } -> Printf.sprintf "A %s" (Ids.txn_to_string txn)
      in
      Buffer.add_string b (Printf.sprintf "%d %.9f %s\n" s.seq s.at e))
    (History.events (Sss_kv.Kv.history cl));
  Buffer.contents b

(* Two inputs: a 50%-read-only run over 18 keys, and a small, hot key
   space (8 keys, 20% read-only) where chains and logs grow fastest. *)
let test_gc_does_not_change_history () =
  List.iter
    (fun (seed, keys, ro) ->
      let run gc = gc_run ~keys ~ro ~gc ~seed () in
      let _, off = run false and named, on = run true in
      let what fmt = Printf.ksprintf named ("seed %d: " ^^ fmt) seed in
      (* the GC-on run must have actually collected something, or this test
         proves nothing *)
      let _, dropped_versions, _ = Sss_kv.Kv.gc_stats on in
      Alcotest.(check bool)
        (what "GC dropped versions (%d)" dropped_versions)
        true (dropped_versions > 0);
      Alcotest.(check bool)
        (what "GC-on retains fewer versions (%d < %d)" (Sss_kv.Kv.version_count on)
           (Sss_kv.Kv.version_count off))
        true
        (Sss_kv.Kv.version_count on < Sss_kv.Kv.version_count off);
      Alcotest.(check bool)
        (what "GC-on retains fewer log entries (%d < %d)" (Sss_kv.Kv.nlog_entries on)
           (Sss_kv.Kv.nlog_entries off))
        true
        (Sss_kv.Kv.nlog_entries on < Sss_kv.Kv.nlog_entries off);
      check_ok (what "GC-on run is checker-clean") (checker_verdict on);
      check_ok (what "GC-on run is quiescent") (Sss_kv.Kv.quiescent on);
      (* and the committed history — every event, timestamp and version
         read — is byte-identical: the GC was invisible *)
      Alcotest.(check string) (what "histories byte-identical") (history_fingerprint off)
        (history_fingerprint on))
    [ (23, 18, 0.5); (11, 8, 0.2) ]

let () =
  Alcotest.run "consistency"
    [
      ( "checker",
        [
          Alcotest.test_case "serial passes" `Quick test_serial_history_passes;
          Alcotest.test_case "stale read after completion" `Quick test_stale_read_after_completion;
          Alcotest.test_case "write skew" `Quick test_write_skew_detected;
          Alcotest.test_case "lost update" `Quick test_lost_update_detected;
          Alcotest.test_case "long fork" `Quick test_long_fork_detected;
          Alcotest.test_case "aborted excluded" `Quick test_aborted_txns_excluded;
          Alcotest.test_case "ro abort flagged" `Quick test_read_only_abort_flagged;
          Alcotest.test_case "uncommitted installer" `Quick test_uncommitted_installer_constrains;
          Alcotest.test_case "edge kinds" `Quick test_dependency_edge_kinds;
          Alcotest.test_case "disabled recorder" `Quick test_disabled_recorder;
          Alcotest.test_case "to_dot" `Quick test_to_dot_renders_edges;
          Alcotest.test_case "strict vs session" `Quick test_strict_vs_session_semantics;
        ] );
      ( "history",
        [
          QCheck_alcotest.to_alcotest history_round_trip;
          Alcotest.test_case "retention per event" `Quick test_history_retention;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "stale read in a real history" `Quick test_mutation_stale_read;
          Alcotest.test_case "swapped commit order in a real history" `Quick
            test_mutation_swapped_commit_order;
          Alcotest.test_case "dropped install in a real history" `Quick
            test_mutation_dropped_install;
          Alcotest.test_case "torn commit in a real history" `Quick test_mutation_torn_commit;
          Alcotest.test_case "verify verdicts and exit status" `Quick test_verify_verdicts;
          Alcotest.test_case "duplicate install accepted" `Quick
            test_duplicate_install_accepted;
        ] );
      ( "gc-safety",
        [
          Alcotest.test_case "over-eager truncate caught" `Quick
            test_over_eager_truncate_caught;
          Alcotest.test_case "GC never changes committed history" `Quick
            test_gc_does_not_change_history;
        ] );
    ]
