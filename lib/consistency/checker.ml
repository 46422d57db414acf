open Sss_data

type check_result = (unit, string) result

(* Transactions are keyed by [Ids.pack]: its integer order is
   [Ids.compare_txn] (genesis packs to 0), so map iteration, edge order and
   every reported cycle are those of a map keyed by the id record. *)
module TxnMap = Map.Make (Int)

let genesis = Ids.pack Ids.genesis

let name p = Ids.txn_to_string (Ids.unpack p)

type txn_info = {
  mutable ro : bool;
  mutable committed : bool;
  mutable commit_seq : int;
  mutable begin_seq : int;
  mutable home : int;
  mutable aborted : bool;
  mutable reads : (Ids.key * int) list;
  mutable installs : Ids.key list;
  mutable next : (Ids.key * int) list;  (* each installed key's next installer *)
  mutable declared_ws : Ids.key list;
  mutable vertex : int;  (* index in the graph [check_acyclic] builds *)
}

type analysis = {
  infos : txn_info TxnMap.t;
  install_order : (Ids.key, int list) Hashtbl.t;  (* oldest first, genesis implicit *)
}

let fresh_info seq =
  {
    ro = false;
    committed = false;
    commit_seq = -1;
    begin_seq = seq;
    home = -1;
    aborted = false;
    reads = [];
    installs = [];
    next = [];
    declared_ws = [];
    vertex = -1;
  }

let analyse history =
  let infos = ref TxnMap.empty in
  let info seq txn =
    let txn = Ids.pack txn in
    match TxnMap.find_opt txn !infos with
    | Some i -> i
    | None ->
        let i = fresh_info seq in
        infos := TxnMap.add txn i !infos;
        i
  in
  let install_order : (Ids.key, int list) Hashtbl.t = Hashtbl.create 16 in
  History.iter history (fun ~seq ~at:_ event ->
      match event with
      | History.Begin { txn; ro; node } ->
          let i = info seq txn in
          i.ro <- ro;
          i.home <- node;
          i.begin_seq <- seq
      | History.Read { txn; key; writer } ->
          let i = info seq txn in
          i.reads <- (key, Ids.pack writer) :: i.reads
      | History.Install { txn; key } ->
          let i = info seq txn in
          (* Keep-first dedup: redo recovery can legitimately re-install a
             version whose apply was recorded but whose log record had not
             reached the disk before the crash (the Decide is redelivered and
             reapplied).  The version's position is its first installation;
             a duplicate must not re-enter the install order. *)
          if not (List.mem key i.installs) then begin
            i.installs <- key :: i.installs;
            let prev = Option.value ~default:[] (Hashtbl.find_opt install_order key) in
            Hashtbl.replace install_order key (Ids.pack txn :: prev)
          end
      | History.Commit { txn; ws } ->
          let i = info seq txn in
          i.committed <- true;
          i.commit_seq <- seq;
          i.declared_ws <- ws
      | History.Abort { txn } -> (info seq txn).aborted <- true);
  (* Collect the keys first: replacing bindings while iterating a Hashtbl
     is undefined behaviour (a key can be visited twice, re-reversing its
     list and corrupting the install order).  Sorted so nothing downstream
     can depend on bucket order. *)
  let keys =
    List.sort Int.compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) install_order [] [@order_ok])
  in
  (* Index each version's successor in its key's install order under the
     version's writer, so a read finds its anti-dependency without a scan. *)
  List.iter
    (fun k ->
      let order = List.rev (Hashtbl.find install_order k) in
      Hashtbl.replace install_order k order;
      let rec link = function
        | w :: (w' :: _ as rest) ->
            let i = TxnMap.find w !infos in
            i.next <- (k, w') :: i.next;
            link rest
        | _ -> ()
      in
      link order)
    keys;
  { infos = !infos; install_order }

let in_graph a txn =
  (not (Int.equal txn genesis))
  &&
  match TxnMap.find_opt txn a.infos with
  | None -> false
  | Some i -> (not i.aborted) && (i.committed || i.installs <> [])

(* Successor of [writer]'s version of [key] in the install order; genesis's
   successor is the first installer. *)
let next_writer a key writer =
  if Int.equal writer genesis then
    Option.bind (Hashtbl.find_opt a.install_order key) (fun order -> List.nth_opt order 0)
  else Option.bind (TxnMap.find_opt writer a.infos) (fun i -> List.assoc_opt key i.next)

let dependency_edges_of a =
  let edges = ref [] in
  let add src dst label =
    if in_graph a src && in_graph a dst && not (Int.equal src dst) then
      edges := (src, dst, label) :: !edges
  in
  (* wr and rw edges from reads *)
  TxnMap.iter
    (fun txn i ->
      if in_graph a txn then
        List.iter
          (fun (key, writer) ->
            add writer txn "wr";
            match next_writer a key writer with
            | Some w' -> add txn w' "rw"
            | None -> ())
          i.reads)
    a.infos;
  (* ww edges: consecutive installs of the same key.  Emitted in sorted key
     order so the edge list (and hence which cycle a DFS reports first) is
     independent of Hashtbl bucket order. *)
  let ww_keys =
    List.sort Int.compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) a.install_order [] [@order_ok])
  in
  List.iter
    (fun key ->
      let order = Hashtbl.find a.install_order key in
      let rec pairs = function
        | w1 :: (w2 :: _ as rest) ->
            add w1 w2 "ww";
            pairs rest
        | _ -> ()
      in
      pairs order)
    ww_keys;
  List.rev !edges

(* Cycle search over an integer graph, reporting the cycle's members. *)
let find_cycle ~size ~first ~succ =
  let color = Array.make size `White in
  let parent = Array.make size (-1) in
  let cycle = ref None in
  (* Explicit stack to survive deep graphs. *)
  let rec dfs v =
    if !cycle = None then begin
      color.(v) <- `Grey;
      for k = first.(v) to first.(v + 1) - 1 do
        let w = succ.(k) in
        if !cycle = None then
          match color.(w) with
          | `Grey ->
              let rec walk u acc = if u = w then u :: acc else walk parent.(u) (u :: acc) in
              cycle := Some (walk v [ w ])
          | `Black -> ()
          | `White ->
              parent.(w) <- v;
              dfs w
      done;
      color.(v) <- `Black
    end
  in
  for v = 0 to size - 1 do
    if color.(v) = `White then dfs v
  done;
  !cycle

(* Build the integer graph: one node per transaction, plus — when checking
   external consistency — one auxiliary node per commit event, chained in
   commit order.  An edge Ti -> C_i together with C_k -> Tj (where C_k is
   the last commit preceding Tj's begin) encodes every real-time precedence
   commit(Ti) < begin(Tj) with O(n) edges instead of O(n^2). *)
(* [realtime] selects which completion->begin precedences become edges:
   [`None] (plain serializability), [`Session] (only between transactions of
   the same node: the order a single client/site can observe directly), or
   [`Global] (every pair, Spanner-style strict serializability). *)
let check_acyclic a ~realtime =
  let txns = TxnMap.fold (fun t _ acc -> if in_graph a t then t :: acc else acc) a.infos [] in
  let n = List.length txns in
  List.iteri (fun i t -> (TxnMap.find t a.infos).vertex <- i) txns;
  let index t = (TxnMap.find t a.infos).vertex in
  let names = Array.of_list txns in
  (* Group transactions into "sessions": one group for global real-time
     (everything), one per home node for session real-time. *)
  let groups =
    match realtime with
    | `None -> []
    | `Global -> [ txns ]
    | `Session ->
        let by_home = Hashtbl.create 16 in
        List.iter
          (fun t ->
            let h = (TxnMap.find t a.infos).home in
            let prev = Option.value ~default:[] (Hashtbl.find_opt by_home h) in
            Hashtbl.replace by_home h (t :: prev))
          txns;
        (* sorted by home node: group order must not leak bucket order *)
        (Hashtbl.fold (fun h g acc -> (h, g) :: acc) by_home [] [@order_ok])
        |> List.sort (fun (h1, _) (h2, _) -> Int.compare h1 h2)
        |> List.map snd
  in
  let chains =
    List.map
      (fun group ->
        let committed =
          List.filter (fun t -> (TxnMap.find t a.infos).committed) group
          |> List.sort (fun t1 t2 ->
                 Int.compare (TxnMap.find t1 a.infos).commit_seq
                   (TxnMap.find t2 a.infos).commit_seq)
          |> Array.of_list
        in
        (group, committed))
      groups
  in
  let m = List.fold_left (fun acc (_, c) -> acc + Array.length c) 0 chains in
  let size = n + m in
  let edges = ref [] in
  let add_edge u v = edges := (u, v) :: !edges in
  List.iter
    (fun (src, dst, _) -> add_edge (index src) (index dst))
    (dependency_edges_of a);
  let base = ref n in
  List.iter
    (fun (group, committed) ->
      let mg = Array.length committed in
      let off = !base in
      base := off + mg;
      for k = 0 to mg - 2 do
        add_edge (off + k) (off + k + 1)
      done;
      Array.iteri (fun k t -> add_edge (index t) (off + k)) committed;
      let commit_seqs = Array.map (fun t -> (TxnMap.find t a.infos).commit_seq) committed in
      List.iter
        (fun t ->
          let b = (TxnMap.find t a.infos).begin_seq in
          (* largest k with commit_seqs.(k) < b *)
          let rec search lo hi best =
            if lo > hi then best
            else
              let mid = (lo + hi) / 2 in
              if commit_seqs.(mid) < b then search (mid + 1) hi mid
              else search lo (mid - 1) best
          in
          let k = search 0 (mg - 1) (-1) in
          if k >= 0 then add_edge (off + k) (index t))
        group)
    chains;
  (* Vertex [u]'s successors are [succ.(first.(u))] up to [first.(u + 1)],
     latest edge first.  Flat int arrays leave the minor heap nothing. *)
  let first = Array.make (size + 1) 0 in
  List.iter (fun (u, _) -> first.(u + 1) <- first.(u + 1) + 1) !edges;
  for u = 1 to size do first.(u) <- first.(u) + first.(u - 1) done;
  let fill = Array.copy first and succ = Array.make first.(size) 0 in
  List.iter (fun (u, v) -> succ.(fill.(u)) <- v; fill.(u) <- fill.(u) + 1) !edges;
  match find_cycle ~size ~first ~succ with
  | None -> Ok ()
  | Some cyc ->
      let pretty v = if v < n then name names.(v) else Printf.sprintf "[rt%d]" (v - n) in
      Error (Printf.sprintf "cycle: %s" (String.concat " -> " (List.map pretty cyc)))

let external_consistency history = check_acyclic (analyse history) ~realtime:`Session

let external_consistency_strict history = check_acyclic (analyse history) ~realtime:`Global

let serializability history = check_acyclic (analyse history) ~realtime:`None

let no_lost_updates history =
  let a = analyse history in
  let bad = ref None in
  TxnMap.iter
    (fun txn i ->
      if !bad = None && in_graph a txn then
        List.iter
          (fun key ->
            match List.assoc_opt key i.reads with
            | None -> ()  (* blind write *)
            | Some observed -> (
                (* The version this RMW observed must be the one directly
                   preceding its own install. *)
                match Hashtbl.find_opt a.install_order key with
                | None -> ()
                | Some order ->
                    let rec pred prev = function
                      | [] -> None
                      | w :: rest -> if Int.equal w txn then Some prev else pred w rest
                    in
                    (match pred genesis order with
                    | Some expected when not (Int.equal expected observed) ->
                        if !bad = None then
                          bad :=
                            Some
                              (Printf.sprintf
                                 "lost update: %s overwrote k%d reading %s instead of %s"
                                 (name txn) key (name observed) (name expected))
                    | _ -> ())))
          i.installs)
    a.infos;
  match !bad with None -> Ok () | Some msg -> Error msg

(* Atomicity across crashes: once the client has been told "committed", the
   whole declared write set must be installed.  A missing install means the
   ack escaped before the decision (or an apply) was durable — a torn
   commit.  The converse — a fully installed transaction with no commit
   event — is fine: its coordinator died before replying and the writes
   were driven to completion by recovery (it participates in the graph via
   [in_graph] but carries no completion edge). *)
let no_torn_commits history =
  let a = analyse history in
  let bad = ref None in
  TxnMap.iter
    (fun txn i ->
      if !bad = None && i.committed && not i.aborted then
        List.iter
          (fun key ->
            if !bad = None && not (List.mem key i.installs) then
              bad :=
                Some
                  (Printf.sprintf "torn commit: %s acked to its client but k%d never installed"
                     (name txn) key))
          (List.sort Int.compare i.declared_ws))
    a.infos;
  match !bad with None -> Ok () | Some msg -> Error msg

let read_only_abort_free history =
  let a = analyse history in
  let bad = ref None in
  TxnMap.iter
    (fun txn i ->
      if i.ro && i.aborted && !bad = None then
        bad := Some (Printf.sprintf "read-only %s aborted" (name txn)))
    a.infos;
  match !bad with None -> Ok () | Some msg -> Error msg

let committed_count history =
  let a = analyse history in
  TxnMap.fold (fun _ i acc -> if i.committed then acc + 1 else acc) a.infos 0

let aborted_count history =
  let a = analyse history in
  TxnMap.fold (fun _ i acc -> if i.aborted then acc + 1 else acc) a.infos 0

let txn_count history =
  let a = analyse history in
  TxnMap.cardinal a.infos

let dependency_edges history =
  List.map (fun (s, d, l) -> (Ids.unpack s, Ids.unpack d, l)) (dependency_edges_of (analyse history))

let to_dot history =
  let a = analyse history in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph dsg {\n  rankdir=LR;\n";
  TxnMap.iter
    (fun txn i ->
      if in_graph a txn then
        Buffer.add_string buf
          (Printf.sprintf "  \"%s\" [shape=%s%s];\n" (name txn)
             (if i.ro then "ellipse" else "box")
             (if i.committed then "" else ", style=dashed")))
    a.infos;
  List.iter
    (fun (src, dst, label) ->
      let color = match label with "wr" -> "black" | "ww" -> "blue" | _ -> "red" in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%s\", color=%s];\n"
           (name src) (name dst) label color))
    (dependency_edges_of a);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
