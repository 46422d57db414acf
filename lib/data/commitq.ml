type status = Pending | Ready

type entry = { txn : Ids.txn; vc : Vclock.t; status : status }

type t = { node : int; mutable entries : entry list }

let create ~node = { node; entries = [] }

let order t a b =
  let c = Int.compare (Vclock.get a.vc t.node) (Vclock.get b.vc t.node) in
  if c <> 0 then c else Ids.compare_txn a.txn b.txn

let insert t e =
  let rec go = function
    | [] -> [ e ]
    | x :: rest as all -> if order t e x < 0 then e :: all else x :: go rest
  in
  t.entries <- go t.entries

let mem t txn = List.exists (fun e -> Ids.equal_txn e.txn txn) t.entries

let put t ~txn ~vc =
  if mem t txn then invalid_arg "Commitq.put: duplicate transaction";
  insert t { txn; vc; status = Pending }

let remove t txn =
  t.entries <- List.filter (fun e -> not (Ids.equal_txn e.txn txn)) t.entries

let update t ~txn ~vc =
  if mem t txn then begin
    remove t txn;
    insert t { txn; vc; status = Ready }
  end

let head t = match t.entries with [] -> None | e :: _ -> Some e

let length t = List.length t.entries

let to_list t = t.entries

let exists_at_or_below t ~bound =
  List.exists (fun e -> Vclock.get e.vc t.node <= bound) t.entries
