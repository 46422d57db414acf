type entry = { txn : Ids.txn; sid : int; propagated : bool }

(* Both sequences are sorted by (sid, txn).  Queues stay short in practice
   (they only contain in-flight transactions touching this key), so sorted
   lists beat fancier structures here. *)
type t = { mutable reads : entry list; mutable writes : entry list }

let create () = { reads = []; writes = [] }

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

let insert_write t ~txn ~sid =
  t.writes <- insert_sorted { txn; sid; propagated = false } t.writes

(* Single pass per list; when nothing matches, the original list is
   returned physically unchanged so a miss costs no allocation. *)
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
  t.writes <- drop t.writes;
  !removed

let mem t txn =
  let has l = List.exists (fun e -> Ids.equal_txn e.txn txn) l in
  has t.reads || has t.writes

let readers t = t.reads

let writers t = t.writes

let blocks_writer t ~sid =
  List.exists (fun e -> e.propagated || e.sid < sid) t.reads

let is_empty t = t.reads = [] && t.writes = []

let length t = List.length t.reads + List.length t.writes

let pp fmt t =
  let pp_entry kind fmt e =
    Format.fprintf fmt "<%a,%d,%s%s>" Ids.pp_txn e.txn e.sid kind
      (if e.propagated then "*" else "")
  in
  Format.fprintf fmt "{R:%a W:%a}"
    (Format.pp_print_list (pp_entry "R"))
    t.reads
    (Format.pp_print_list (pp_entry "W"))
    t.writes
