open Sss_sim

type mode = Shared | Exclusive

type state = { mutable ex : Ids.txn option; mutable sh : Ids.txn list }

(* [table] holds a key only while some transaction locks it: the state is
   created by the first grant and dropped by the release that frees the key,
   so an absent key reads as free. *)
type t = {
  sim : Sim.t;
  table : (Ids.key, state) Hashtbl.t;
  held : (Ids.txn, Ids.key list ref) Hashtbl.t;
  changed : Sim.Cond.t;
}

let create sim =
  { sim; table = Hashtbl.create 16; held = Hashtbl.create 16; changed = Sim.Cond.create () }

let state t k =
  match Hashtbl.find_opt t.table k with
  | Some s -> s
  | None ->
      let s = { ex = None; sh = [] } in
      Hashtbl.add t.table k s;
      s

let note_held t txn k =
  let keys =
    match Hashtbl.find_opt t.held txn with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace t.held txn r;
        r
  in
  if not (List.mem k !keys) then keys := k :: !keys

let same = Ids.equal_txn

let can_take s txn = function
  | Shared -> ( match s.ex with None -> true | Some o -> same o txn)
  | Exclusive -> (
      (match s.ex with None -> true | Some o -> same o txn)
      && List.for_all (fun o -> same o txn) s.sh)

let take t s txn mode k =
  (match mode with
  | Shared -> if not (List.exists (same txn) s.sh) then s.sh <- txn :: s.sh
  | Exclusive -> s.ex <- Some txn);
  note_held t txn k

let acquire t txn mode k ~timeout =
  let s = state t k in
  if can_take s txn mode then begin
    take t s txn mode k;
    true
  end
  else begin
    (* looked up afresh on every wake: the key may have gone free (its
       state dropped) and been taken again since this waiter parked *)
    let granted =
      Sim.Cond.await_timeout t.sim t.changed ~timeout (fun () ->
          match Hashtbl.find_opt t.table k with None -> true | Some s -> can_take s txn mode)
    in
    if granted then take t (state t k) txn mode k;
    granted
  end

let release_key t txn k =
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some s ->
      (match s.ex with Some o when same o txn -> s.ex <- None | _ -> ());
      s.sh <- List.filter (fun o -> not (same o txn)) s.sh;
      if s.ex = None && s.sh = [] then Hashtbl.remove t.table k

let release_txn t txn =
  (match Hashtbl.find_opt t.held txn with
  | None -> ()
  | Some keys ->
      List.iter (release_key t txn) !keys;
      Hashtbl.remove t.held txn);
  Sim.Cond.broadcast t.sim t.changed

let acquire_all t txn ~exclusive ~shared ~timeout =
  let sorted = List.sort_uniq Int.compare in
  let rec go mode = function
    | [] -> true
    | k :: rest -> acquire t txn mode k ~timeout && go mode rest
  in
  let ok = go Exclusive (sorted exclusive) && go Shared (sorted shared) in
  if not ok then release_txn t txn;
  ok

let holds_exclusive t txn k =
  match Hashtbl.find_opt t.table k with
  | Some { ex = Some o; _ } -> same o txn
  | _ -> false

let holds_shared t txn k =
  match Hashtbl.find_opt t.table k with
  | Some s -> List.exists (same txn) s.sh
  | None -> false

let is_free t k = not (Hashtbl.mem t.table k)

let key_count t = Hashtbl.length t.table

let locked_keys t txn =
  match Hashtbl.find_opt t.held txn with Some r -> !r | None -> []

let holder_count t = Hashtbl.length t.held
