(* The atomic-commitment core of Sss_kv.Runtime, driven through a toy
   protocol whose only messages are the in-doubt query and its answer:
   the four in-doubt answers, the termination watchdog's exits, the
   decision column and its retirement, and the participant's prepared
   entries — the fence, the restart's relock and re-watch, and the
   checkpoint. *)

open Sss_sim
open Sss_data
module Runtime = Sss_kv.Runtime

type msg =
  | Query of { req : int; txn : Ids.txn }
  | Outcome of { req : int; verdict : unit Runtime.verdict }
  | Tracked of { token : int; inner : msg }
  | Delivered of { token : int }

(* A toy prepared entry: its coordinator and the keys it locks
   exclusively. *)
type prep = { coord : Ids.node; keys : Ids.key list }

type node = { id : Ids.node; ac : (unit, unit, prep) Runtime.commitment; locks : Locks.t }

type logrec = Prepared of Ids.txn * prep | Decided of Ids.txn

(* the coordinator answers queries only while [answering]; [queries]
   counts the ones it received and [on_query] sees each count;
   [held_at_rejoin] is the lock holder count a restarted node had when it
   rejoined *)
type ext = {
  mutable answering : bool;
  mutable queries : int;
  mutable on_query : int -> unit;
  mutable held_at_rejoin : int;
}

module Rt = Runtime.Make (struct
  type nonrec msg = msg
  type nonrec node = node
  type nonrec logrec = logrec
  type snap = (unit, prep) Runtime.image
  type nonrec ext = ext

  let system = "toy"
  let priority _ = 100

  let kind_of = function
    | Query _ -> "query"
    | Outcome _ -> "outcome"
    | Tracked _ -> "tracked"
    | Delivered _ -> "delivered"

  let tracked token inner = Tracked { token; inner }
  let receipt token = Delivered { token }
  let id n = n.id
  let make_node sim _ _ id = { id; ac = Runtime.commitment id; locks = Locks.create sim }
  let record_bytes _ _ = 24
  let snapshot_bytes _ _ = 64
end)

module Ac = Rt.Commit (struct
  type vote = unit
  type decision = unit
  type nonrec prep = prep

  let state n = n.ac
  let merge () () = ()
  let query ~req txn = Query { req; txn }
  let outcome ~req verdict = Outcome { req; verdict }
  let locks n = n.locks
  let coord p = p.coord
  let held p = (p.keys, [])
  let copy p = p
end)

let handler (t : Rt.t) node ~src = function
  | Query { req; txn } ->
      t.ext.queries <- t.ext.queries + 1;
      t.ext.on_query t.ext.queries;
      if t.ext.answering then Ac.answer t node ~src ~req txn
  | Outcome { req; verdict } -> Ac.outcome_arrived t node ~req verdict
  | Tracked _ | Delivered _ -> ()

(* The toy participant: an outcome settles the entry and frees its keys. *)
let settle node txn =
  Hashtbl.remove node.ac.prepared txn;
  Locks.release_txn node.locks txn

let watch t node txn p ~linger =
  Ac.watch t node txn p ~linger
    ~on_committed:(fun () ~driving:_ ->
      settle node txn;
      false)
    ~on_aborted:(fun () -> settle node txn)

(* A Prepare: unless fenced, take the keys and vote yes once the prepare
   record is durable.  Call from a fiber. *)
let prepare t node txn p =
  let ok =
    (not (Ac.fenced node txn))
    && Locks.acquire_all node.locks txn ~exclusive:p.keys ~shared:[]
         ~timeout:Sss_kv.Config.lock_timeout
    && not (Ac.fenced node txn)
  in
  if not ok then Locks.release_txn node.locks txn;
  ok && Ac.prepare t node txn p (Prepared (txn, p)) ~watch

let cluster ?(durability = false) ?(answering = true) () =
  let sim = Sim.create () in
  let config = { Sss_kv.Config.default with nodes = 2; durability } in
  let hooks =
    {
      Rt.handler;
      wound = Ac.wound;
      snapshot = Ac.image;
      load = Ac.load;
      replay =
        (fun t n -> function
          | Prepared (txn, p) -> Hashtbl.replace n.ac.prepared txn p
          | Decided txn -> Ac.restore t n txn ());
      recover =
        (fun t n ->
          Ac.recover t n ~watch ~on_rejoin:(fun () ->
              t.ext.held_at_rejoin <- Locks.holder_count n.locks));
    }
  in
  let ext = { answering; queries = 0; on_query = ignore; held_at_rejoin = 0 } in
  (sim, Rt.create ~hooks ~ext sim config)

let txn local = { Ids.node = 1; local }

let verdict_name = function
  | Runtime.Committed { driving = true; _ } -> "committed (driving)"
  | Runtime.Committed { driving = false; _ } -> "committed"
  | Runtime.Aborted -> "aborted"
  | Runtime.Undecided -> "undecided"

let check_verdict what expected node tx =
  Alcotest.(check string) what expected (verdict_name (Ac.verdict node tx))

(* The local ids of a node's checkpointed decisions, in id order. *)
let imaged node = List.rev (Slots.fold (fun l () _ _ acc -> l :: acc) (Ac.image node).decided [])

(* ---------- the in-doubt answer ---------- *)

let test_answers () =
  let sim, t = cluster ~durability:true () in
  let coord = t.nodes.(1) in
  check_verdict "unknown" "aborted" coord (txn 1);
  let round = Ac.open_round coord (txn 2) ~expect:2 () in
  check_verdict "vote round open" "undecided" coord (txn 2);
  Sim.spawn sim (fun () -> Ac.decide t coord (txn 3) () (Decided (txn 3)));
  Sim.run_until sim 1e-5;
  check_verdict "decision flushing" "undecided" coord (txn 3);
  Sim.run_until sim 1e-3;
  check_verdict "decision durable" "committed (driving)" coord (txn 3);
  Ac.completed coord (txn 3);
  check_verdict "completion done" "committed" coord (txn 3);
  Ac.restore t coord (txn 4) ();
  check_verdict "reloaded" "committed" coord (txn 4);
  Alcotest.(check (list int)) "checkpointed decisions" [ 3; 4 ] (imaged coord);
  (* a round that hears nothing times out and stops answering undecided *)
  Sim.spawn sim (fun () ->
      match Ac.await_round t coord (txn 2) round with
      | Some Rt.Vote_timeout -> ()
      | _ -> Alcotest.fail "an unanswered round must time out");
  Sim.run_until sim 1.0;
  check_verdict "round closed" "aborted" coord (txn 2)

(* ---------- the vote round ---------- *)

let test_round_results () =
  let sim, t = cluster () in
  let coord = t.nodes.(1) in
  let result = ref None in
  let run_round tx votes =
    let round = Ac.open_round coord tx ~expect:2 () in
    List.iter (fun ok -> Ac.vote_arrived t coord tx ~ok ()) votes;
    Sim.spawn sim (fun () -> result := Some (Ac.await_round t coord tx round));
    Sim.run_until sim (Sim.now sim +. 1.0);
    Option.get !result
  in
  Alcotest.(check bool) "all yes" true (run_round (txn 1) [ true; true ] = None);
  Alcotest.(check bool) "a no vote" true (run_round (txn 2) [ true; false ] = Some Rt.Vote_false);
  Alcotest.(check bool) "missing vote" true (run_round (txn 3) [ true ] = Some Rt.Vote_timeout)

(* ---------- the termination watchdog ---------- *)

(* Node 0 holds txn 9 in doubt, coordinated by node 1, and watches it;
   the entry stays until the test settles it. *)
let watch_entry ?(on_committed = fun () ~driving:_ -> false) t =
  let node = t.Rt.nodes.(0) and p = { coord = 1; keys = [] } in
  Hashtbl.replace node.ac.prepared (txn 9) p;
  Ac.watch t node (txn 9) p ~linger:false ~on_committed
    ~on_aborted:(fun () -> Alcotest.fail "nothing was aborted")

let test_watch_stops_when_settled () =
  let sim, t = cluster () in
  (* the coordinator keeps answering undecided: its vote round stays open *)
  ignore (Ac.open_round t.nodes.(1) (txn 9) ~expect:2 () : unit Runtime.round);
  (* in doubt for three attempts, then settled *)
  t.ext.on_query <- (fun n -> if n = 3 then Hashtbl.remove t.nodes.(0).ac.prepared (txn 9));
  watch_entry t;
  Sim.run_until sim 1.0;
  Alcotest.(check int) "no query once settled" 3 t.ext.queries

let test_watch_done_on_commit () =
  let sim, t = cluster () in
  Ac.restore t t.nodes.(1) (txn 9) ();
  let heard = ref 0 in
  watch_entry t ~on_committed:(fun () ~driving ->
      Alcotest.(check bool) "reloaded decision is not driven" false driving;
      incr heard;
      false);
  Sim.run_until sim 1.0;
  Alcotest.(check int) "one answer" 1 !heard;
  Alcotest.(check int) "one query" 1 t.ext.queries

let test_watch_stalls () =
  let sim, t = cluster ~answering:false () in
  watch_entry t;
  (match Sim.run_until sim 1.0 with
  | () -> Alcotest.fail "an unanswered watchdog must stall"
  | exception Sss_net.Rpc.Stalled { phase; _ } ->
      Alcotest.(check string) "phase" "in-doubt" phase);
  Alcotest.(check int) "retry_limit queries" Sss_kv.Config.retry_limit t.ext.queries

let test_watch_exits_on_crash () =
  let sim, t = cluster ~durability:true ~answering:false () in
  watch_entry t;
  (* the query has arrived; the watchdog waits for an answer *)
  Sim.run_until sim 4e-3;
  Alcotest.(check int) "first query" 1 t.ext.queries;
  Rt.crash_node t 0;
  Sim.run_until sim 1.0;
  Alcotest.(check int) "no query after the crash" 1 t.ext.queries

(* ---------- the completion-ack box ---------- *)

let filled (b : Runtime.acks) = Sim.Ivar.is_filled b.all_in

let ack t boxes ~src ~round = Rt.ack_arrived t boxes (txn 1) ~src ~round

(* Acks settle their own sender's entries: a surplus one counts for
   nothing, and a sender listed twice owes two. *)
let test_box_by_sender () =
  let _, t = cluster () in
  let boxes = Hashtbl.create 4 in
  let b = Rt.open_acks t boxes (txn 1) ~from:[ 0; 1; 1 ] ~round:0 in
  ack t boxes ~src:0 ~round:0;
  ack t boxes ~src:0 ~round:0;
  ack t boxes ~src:1 ~round:0;
  Alcotest.(check bool) "a surplus ack from a settled sender does not fill" false (filled b);
  Alcotest.(check (list int)) "the twice-listed sender owes one more" [ 1 ] b.missing;
  ack t boxes ~src:1 ~round:0;
  Alcotest.(check bool) "its second ack fills" true (filled b)

let test_box_rounds () =
  let _, t = cluster () in
  let boxes = Hashtbl.create 4 in
  let b = Rt.open_acks t boxes (txn 1) ~from:[ 0 ] ~round:1 in
  ack t boxes ~src:0 ~round:0;
  Alcotest.(check bool) "a stale-round ack is ignored" false (filled b);
  ack t boxes ~src:0 ~round:1;
  Alcotest.(check bool) "an ack of the round fills" true (filled b);
  let empty = Rt.open_acks t boxes (txn 2) ~from:[] ~round:0 in
  Alcotest.(check bool) "no expected sender: already filled" true (filled empty)

(* A crash swaps the home's record and fills its boxes: the waiter wakes
   at once and raises [Crashed] instead of taking the fill for acks. *)
let test_box_crash () =
  let sim, t = cluster ~durability:true () in
  let home = t.nodes.(1) and boxes = Hashtbl.create 4 in
  let b = Rt.open_acks t boxes (txn 1) ~from:[ 0 ] ~round:0 in
  let woke = ref None in
  Sim.spawn sim (fun () ->
      match Rt.await_acks t home b ~phase:"ack" (txn 1) with
      | () -> woke := Some "returned"
      | exception Sss_net.Rpc.Crashed { node; _ } ->
          woke := Some (Printf.sprintf "crashed %d at %g" node (Sim.now sim)));
  Sim.run_until sim 1e-3;
  Rt.crash_node t 1;
  Rt.fill_acks t boxes;
  Sim.run_until sim 1.0;
  Alcotest.(check (option string)) "woken by the fill" (Some "crashed 1 at 0.001") !woke

(* ---------- the participant's prepared entries ---------- *)

(* An abort decision that overtook its Prepare fences it: the Prepare
   votes no and leaves no entry or lock behind, and an unfenced one goes
   through. *)
let test_fence () =
  let sim, t = cluster () in
  let node = t.nodes.(0) and p = { coord = 1; keys = [ 5 ] } in
  Ac.fence t node (txn 1);
  let votes = ref [] in
  Sim.spawn sim (fun () ->
      let fenced = prepare t node (txn 1) p in
      votes := [ fenced; prepare t node (txn 2) p ]);
  Sim.run_until sim 1.0;
  Alcotest.(check (list bool)) "fenced no, fresh yes" [ false; true ] !votes;
  Alcotest.(check bool) "no entry for the fenced" false (Ac.in_doubt node (txn 1));
  Alcotest.(check bool) "an entry for the fresh one" true (Ac.in_doubt node (txn 2));
  Alcotest.(check bool) "the fresh one holds the key" true
    (Locks.holds_exclusive node.locks (txn 2) 5)

(* A restart re-takes an in-doubt entry's locks before the node rejoins,
   so a new Prepare on its keys is refused; the re-watched entry then
   settles on the coordinator's verdict. *)
let test_restart_relocks () =
  let sim, t = cluster ~durability:true () in
  let coord = t.nodes.(1) and p = { coord = 1; keys = [ 5 ] } in
  (* the coordinator answers undecided until it decides *)
  ignore (Ac.open_round coord (txn 1) ~expect:1 () : unit Runtime.round);
  Sim.spawn sim (fun () ->
      Alcotest.(check bool) "voted yes" true (prepare t t.nodes.(0) (txn 1) p));
  Sim.run_until sim 0.005;
  Rt.crash_node t 0;
  Rt.restart_node t 0;
  Sim.run_until sim 0.01;
  let node = t.nodes.(0) in
  Alcotest.(check int) "locks held at rejoin" 1 t.ext.held_at_rejoin;
  Alcotest.(check bool) "in doubt after restart" true (Ac.in_doubt node (txn 1));
  Alcotest.(check bool) "lock re-taken" true (Locks.holds_exclusive node.locks (txn 1) 5);
  let fresh = ref None in
  Sim.spawn sim (fun () -> fresh := Some (prepare t node (txn 2) p));
  Sim.run_until sim 0.015;
  Alcotest.(check (option bool)) "a new Prepare is refused" (Some false) !fresh;
  let asked = t.ext.queries in
  Ac.restore t coord (txn 1) ();
  Sim.run_until sim 0.1;
  Alcotest.(check bool) "re-watched after restart" true (asked > 0);
  Alcotest.(check bool) "settled by the verdict" false (Ac.in_doubt node (txn 1));
  Alcotest.(check bool) "key free" true (Locks.is_free node.locks 5)

(* The checkpoint holds the prepared, decided and fenced parts: with the
   log truncated below it, a restart rebuilds all three from it alone. *)
let test_checkpoint () =
  let sim, t = cluster ~durability:true ~answering:false () in
  let node = t.nodes.(0) and own = { Ids.node = 0; local = 2 } in
  Ac.fence t node (txn 3);
  Sim.spawn sim (fun () ->
      ignore (prepare t node (txn 1) { coord = 1; keys = [ 5 ] } : bool);
      Ac.decide t node own () (Decided own));
  (* past the checkpoint interval: the image is on disk *)
  Sim.run_until sim 0.2;
  Rt.crash_node t 0;
  Rt.restart_node t 0;
  Sim.run_until sim 0.25;
  let node = t.nodes.(0) in
  Alcotest.(check bool) "prepared entry" true (Ac.in_doubt node (txn 1));
  check_verdict "decision" "committed" node own;
  Alcotest.(check bool) "fence" true (Ac.fenced node (txn 3));
  Alcotest.(check bool) "lock re-taken" true (Locks.holds_exclusive node.locks (txn 1) 5)

(* ---------- the decision column and its retirement ---------- *)

(* A decision past the horizon goes, unless its coordinator still drives
   it. *)
let test_decision_sweep () =
  let sim, t = cluster () in
  let coord = t.nodes.(1) in
  for i = 1 to 19_998 do
    Ac.restore t coord (txn i) ()
  done;
  (* decided without durability: no flush, so no fiber is needed *)
  Ac.decide t coord (txn 100_001) () (Decided (txn 100_001));
  Ac.decide t coord (txn 100_002) () (Decided (txn 100_002));
  Ac.completed coord (txn 100_002);
  Sim.schedule sim ~delay:20.0 (fun () ->
      Ac.decide t coord (txn 100_003) () (Decided (txn 100_003)));
  Sim.run sim;
  Alcotest.(check (list int)) "the driven and the fresh decision stay" [ 100_001; 100_003 ]
    (imaged coord)

(* At most one retirement pass per quarter horizon, and the passes keep
   the column to the decisions of about the last horizon: 60,000 decides
   over 30 s. *)
let test_retirement_cadence () =
  let sim, t = cluster () in
  let coord = t.nodes.(1) and passes = ref 0 in
  for i = 1 to 60_000 do
    Sim.run_until sim (float_of_int i *. 5e-4);
    let before = coord.ac.retire_at in
    Ac.decide t coord (txn i) () (Decided (txn i));
    Ac.completed coord (txn i);
    if coord.ac.retire_at <> before then incr passes
  done;
  Alcotest.(check int) "one pass per 2.5 s from 10 s on" 9 !passes;
  let kept = Slots.length coord.ac.decisions in
  Alcotest.(check bool) (Printf.sprintf "the last 10-12.5 s kept (%d)" kept) true
    (kept >= 20_000 && kept <= 25_000)

(* A decision reloaded from a checkpoint keeps its decide time: a restart
   does not grant it a fresh horizon. *)
let test_reload_keeps_stamp () =
  let sim, t = cluster ~durability:true () in
  let own local = { Ids.node = 0; local } in
  Sim.spawn sim (fun () ->
      Ac.decide t t.nodes.(0) (own 1) () (Decided (own 1));
      Ac.completed t.nodes.(0) (own 1));
  (* past the checkpoint interval: the image is on disk *)
  Sim.run_until sim 0.2;
  Sim.run_until sim 5.0;
  Rt.crash_node t 0;
  Rt.restart_node t 0;
  Sim.run_until sim 5.1;
  check_verdict "reloaded" "committed" t.nodes.(0) (own 1);
  (* the first decide past the horizon runs a retirement pass *)
  Sim.run_until sim 10.2;
  Sim.spawn sim (fun () -> Ac.decide t t.nodes.(0) (own 2) () (Decided (own 2)));
  Sim.run_until sim 10.5;
  check_verdict "retired a horizon after its decide, not its reload" "aborted" t.nodes.(0)
    (own 1);
  check_verdict "the fresh one stays" "committed (driving)" t.nodes.(0) (own 2)

(* A decision still flushing when a checkpoint's snapshot is taken: its
   record lies below the checkpoint's boundary, so once the image lands no
   replay brings it back, and the image itself must carry it.  Decide at
   0.04998 s, snapshot at 0.05 s (the first append armed the timer at 0),
   flush done at 0.05003 s. *)
let test_flushing_decision_survives_checkpoint () =
  let sim, t = cluster ~durability:true () in
  let own local = { Ids.node = 0; local } in
  Sim.spawn sim (fun () -> Ac.decide t t.nodes.(0) (own 1) () (Decided (own 1)));
  Sim.run_until sim 0.04998;
  Sim.spawn sim (fun () -> Ac.decide t t.nodes.(0) (own 2) () (Decided (own 2)));
  Sim.run_until sim 0.05001;
  check_verdict "flushing at the snapshot" "undecided" t.nodes.(0) (own 2);
  Sim.run_until sim 0.2;
  check_verdict "before the crash" "committed (driving)" t.nodes.(0) (own 2);
  Rt.crash_node t 0;
  Rt.restart_node t 0;
  Sim.run_until sim 0.3;
  check_verdict "after the restart" "committed" t.nodes.(0) (own 2)

(* The column's footprint, with 3 of every 4 minted ids decided: about
   two words per minted id live (a table of records holds about 12).  A
   checkpoint image is a frozen view of the column, so what it adds to
   the live column is its spine and marks, a few words per 64-slot block;
   a deep copy would add the column again, about three words per
   decision. *)
let test_retention_per_decision () =
  let _, t = cluster () in
  let coord = t.nodes.(1) and minted = 8_000 in
  for i = 1 to minted do
    if i mod 4 <> 0 then begin
      Ac.decide t coord (txn i) () (Decided (txn i));
      Ac.completed coord (txn i)
    end
  done;
  let per n words = float_of_int words /. float_of_int n in
  let col = coord.ac.decisions in
  let live = per minted (Obj.reachable_words (Obj.repr col)) in
  let img = (Ac.image coord).decided in
  let imaged =
    per
      (Slots.fold (fun _ () _ _ n -> n + 1) img 0)
      (Obj.reachable_words (Obj.repr (col, img)) - Obj.reachable_words (Obj.repr col))
  in
  Alcotest.(check bool) (Printf.sprintf "live %.2f words per minted id" live) true (live <= 2.5);
  Alcotest.(check bool) (Printf.sprintf "image adds %.2f words per decision" imaged) true
    (imaged <= 0.25)

(* The column against a table of (state, stamp) per local id: decides in
   and out of order, far below the base, and of a foreign transaction;
   completions, log replays, image/load round trips onto a fresh record,
   and retirement passes (decides at or past [retire_at] drop the durable
   decisions older than the horizon; driving ones stay). *)
let column_model =
  QCheck.Test.make ~name:"decision column matches a table model" ~count:40
    QCheck.(list_of_size (Gen.int_range 300 1500) (triple (int_bound 19) (int_bound 30) (int_bound 9)))
    (fun ops ->
      let sim, t = cluster () in
      let model = Hashtbl.create 64 and newest = ref 0 and retire_at = ref 10.0 in
      let ok = ref true in
      let coord () = t.Rt.nodes.(1) in
      let check () =
        for l = 0 to !newest + 3 do
          let want =
            match Hashtbl.find_opt model l with
            | Some (`Driving, _) -> "committed (driving)"
            | Some (`Durable, _) -> "committed"
            | None -> "aborted"
          in
          if verdict_name (Ac.verdict (coord ()) (txn l)) <> want then ok := false
        done;
        if Ac.verdict (coord ()) { Ids.node = 0; local = 1 } <> Runtime.Aborted then ok := false
      in
      List.iter
        (fun (op, back, dt) ->
          Sim.run_until sim (Sim.now sim +. (float_of_int dt *. 0.05));
          let now = Sim.now sim in
          let l =
            if back = 30 then 1 + (op * 3) (* far below: moves the base *)
            else if back < 10 then Stdlib.max 1 (!newest - back) (* late, or again *)
            else (newest := !newest + 1; !newest)
          in
          match op with
          | 0 ->
              let img = Ac.image (coord ()) in
              t.nodes.(1) <- { (coord ()) with ac = Runtime.commitment 1 };
              Ac.load t (coord ()) img;
              Hashtbl.filter_map_inplace (fun _ (_, at) -> Some (`Durable, at)) model;
              retire_at := 10.0;
              check ()
          | 1 ->
              Ac.completed (coord ()) (txn l);
              (match Hashtbl.find_opt model l with
              | Some (`Driving, at) -> Hashtbl.replace model l (`Durable, at)
              | _ -> ())
          | 2 ->
              Ac.restore t (coord ()) (txn l) ();
              Hashtbl.replace model l (`Durable, now)
          | 3 -> (
              match Ac.decide t (coord ()) { Ids.node = 0; local = l } () (Decided (txn l)) with
              | () -> ok := false
              | exception Invalid_argument _ -> ())
          | _ ->
              Ac.decide t (coord ()) (txn l) () (Decided (txn l));
              Hashtbl.replace model l (`Driving, now);
              if now >= !retire_at then begin
                Hashtbl.filter_map_inplace
                  (fun _ (st, at) ->
                    if st = `Durable && at < now -. Runtime.retention_horizon then None
                    else Some (st, at))
                  model;
                retire_at := now +. (Runtime.retention_horizon /. 4.)
              end;
              if op = 19 then check ())
        ops;
      check ();
      !ok)

let () =
  Alcotest.run "commitment"
    [
      ( "answer",
        [
          Alcotest.test_case "four in-doubt answers" `Quick test_answers;
          Alcotest.test_case "vote round results" `Quick test_round_results;
          Alcotest.test_case "a flushing decision survives a checkpoint" `Quick
            test_flushing_decision_survives_checkpoint;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "stops once settled" `Quick test_watch_stops_when_settled;
          Alcotest.test_case "done on commit" `Quick test_watch_done_on_commit;
          Alcotest.test_case "stalls after retry_limit" `Quick test_watch_stalls;
          Alcotest.test_case "exits on crash" `Quick test_watch_exits_on_crash;
        ] );
      ( "participant",
        [
          Alcotest.test_case "fence refuses an overtaken prepare" `Quick test_fence;
          Alcotest.test_case "restart relocks, then re-watches" `Quick test_restart_relocks;
          Alcotest.test_case "checkpoint survives a crash" `Quick test_checkpoint;
        ] );
      ( "ack box",
        [
          Alcotest.test_case "acks settle by sender" `Quick test_box_by_sender;
          Alcotest.test_case "rounds, and the empty box" `Quick test_box_rounds;
          Alcotest.test_case "a crash wakes the waiter" `Quick test_box_crash;
        ] );
      ( "retention",
        [
          Alcotest.test_case "decision sweep" `Quick test_decision_sweep;
          Alcotest.test_case "retirement cadence" `Quick test_retirement_cadence;
          Alcotest.test_case "reloaded decision keeps its decide time" `Quick
            test_reload_keeps_stamp;
          Alcotest.test_case "retention per decision" `Quick test_retention_per_decision;
          QCheck_alcotest.to_alcotest column_model;
        ] );
    ]
