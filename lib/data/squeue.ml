type entry = { txn : Ids.txn; sid : int; propagated : bool }

(* Sorted by (sid, txn).  Queues stay short in practice (they only contain
   in-flight transactions touching this key), so a sorted list beats
   fancier structures here. *)
type t = { mutable reads : entry list }

let create () = { reads = [] }

let compare_entry a b =
  let c = Int.compare a.sid b.sid in
  if c <> 0 then c
  else
    let c = Ids.compare_txn a.txn b.txn in
    if c <> 0 then c else Bool.compare a.propagated b.propagated

let insert_sorted e l =
  let rec go = function
    | [] -> [ e ]
    | x :: rest as all ->
        let c = compare_entry e x in
        if c = 0 then all  (* idempotent *)
        else if c < 0 then e :: all
        else x :: go rest
  in
  go l

let insert_read t ~txn ~sid =
  t.reads <- insert_sorted { txn; sid; propagated = false } t.reads

let insert_propagated t ~txn ~sid =
  t.reads <- insert_sorted { txn; sid; propagated = true } t.reads

(* Single pass; when nothing matches, the original list is returned
   physically unchanged so a miss costs no allocation. *)
let remove t txn =
  let removed = ref false in
  let rec drop l =
    match l with
    | [] -> l
    | e :: rest ->
        if Ids.equal_txn e.txn txn then begin
          removed := true;
          drop rest
        end
        else
          let rest' = drop rest in
          if rest' == rest then l else e :: rest'
  in
  t.reads <- drop t.reads;
  !removed

let mem t txn = List.exists (fun e -> Ids.equal_txn e.txn txn) t.reads

let readers t = t.reads

let blocks_writer t ~sid =
  List.exists (fun e -> e.propagated || e.sid < sid) t.reads

let is_empty t = t.reads = []

let length t = List.length t.reads

let pp fmt t =
  let pp_entry fmt e =
    Format.fprintf fmt "<%a,%d,R%s>" Ids.pp_txn e.txn e.sid (if e.propagated then "*" else "")
  in
  Format.fprintf fmt "{R:%a}" (Format.pp_print_list pp_entry) t.reads
