type entry = { txn : Ids.txn; vc : Vclock.t; ws : Ids.key list }

(* Entries are kept in an append-ordered dynamic array (the node-local clock
   component strictly increases with application order), together with
   per-prefix entry-wise maxima so that unconstrained visibility queries are
   a binary search + O(1) lookup instead of a scan. *)
type t = {
  node : int;
  nodes : int;
  mutable entries : entry array;
  mutable pmax : int array array;  (* pmax.(i) = entrywise max of entries 0..i *)
  mutable len : int;
  mutable most_recent : Vclock.t;
  mutable committed_max : Vclock.t;
  mutable floor_max : int array;
      (* entrywise max over entries dropped by prune_covered: those entries
         were below the cluster low-watermark, hence admissible for every
         live and future visibility query, so constrained queries seed
         their accumulator here instead of losing the pruned contributions.
         All-zero until the first covered prune.  Rows are write-once
         (replaced wholesale). *)
}

let create ~nodes ~node =
  let zero = Vclock.zero nodes in
  let genesis = { txn = Ids.genesis; vc = zero; ws = [] } in
  {
    node;
    nodes;
    entries = Array.make 64 genesis;
    pmax = Array.make 64 (Array.make nodes 0);
    len = 1;
    most_recent = zero;
    committed_max = zero;
    floor_max = Array.make nodes 0;
  }

let node t = t.node

let grow t =
  if t.len = Array.length t.entries then begin
    let cap = 2 * t.len in
    let entries = Array.make cap t.entries.(0) in
    Array.blit t.entries 0 entries 0 t.len;
    t.entries <- entries;
    let pmax = Array.make cap t.pmax.(0) in
    Array.blit t.pmax 0 pmax 0 t.len;
    t.pmax <- pmax
  end

let add t ~txn ~vc ~ws =
  grow t;
  t.entries.(t.len) <- { txn; vc; ws };
  let prev = t.pmax.(t.len - 1) in
  let m = Array.make t.nodes 0 in
  for w = 0 to t.nodes - 1 do
    let v = Vclock.get vc w in
    let p = Array.unsafe_get prev w in
    Array.unsafe_set m w (if v > p then v else p)
  done;
  t.pmax.(t.len) <- m;
  t.len <- t.len + 1;
  t.most_recent <- vc;
  (* prefix-max rows are write-once, so the committed view can share the
     row instead of copying it *)
  t.committed_max <- (Vclock.unsafe_of_array m [@owned])

let most_recent_vc t = t.most_recent

let most_recent_local t = Vclock.get t.most_recent t.node

let committed_max t = t.committed_max

(* Largest index whose entry has local component < cutoff (entries are
   strictly increasing in the local component). *)
let last_below t cutoff =
  if cutoff = max_int then t.len - 1
  else begin
    let rec search lo hi best =
      if lo > hi then best
      else
        let mid = (lo + hi) / 2 in
        if Vclock.get t.entries.(mid).vc t.node < cutoff then search (mid + 1) hi mid
        else search lo (mid - 1) best
    in
    search 0 (t.len - 1) (-1)
  end

let visible_max t ~has_read ~bound ~cutoff =
  let n = t.nodes in
  let top = last_below t cutoff in
  let unconstrained =
    let rec go w = w >= n || ((not has_read.(w)) && go (w + 1)) in
    go 0
  in
  if top < 0 then
    (* even with every retained entry excluded by the cutoff, entries
       dropped by a covered prune stay visible: they were below the
       low-watermark, so both admissible and (via the watermark's parked
       cap) below every present or future cutoff.  The floor row is
       write-once, so it can be shared like a pmax row. *)
    (Vclock.unsafe_of_array t.floor_max [@owned])
  else if unconstrained then
    (* rows are write-once: share, don't copy (this is the common
       first-contact read) *)
    (Vclock.unsafe_of_array t.pmax.(top) [@owned])
  else begin
    (* Ceiling: on already-read nodes we are capped by the bound, elsewhere
       by the maximum over the cutoff prefix; stop once it is reached. *)
    let row = t.pmax.(top) in
    let ceiling = Array.make n 0 in
    for w = 0 to n - 1 do
      let r = Array.unsafe_get row w in
      Array.unsafe_set ceiling w
        (if has_read.(w) then Stdlib.min (Vclock.get bound w) r else r)
    done;
    (* seed with the covered-prune floor (all-zero unless prune_covered
       ran), so constrained queries keep the pruned entries' contributions
       exactly as if they were still in the log *)
    let acc = Array.copy t.floor_max in
    let reached () =
      let rec go w = w >= n || (acc.(w) >= ceiling.(w) && go (w + 1)) in
      go 0
    in
    let admissible vc =
      let rec go w =
        w >= n || (((not has_read.(w)) || Vclock.get vc w <= Vclock.get bound w) && go (w + 1))
      in
      go 0
    in
    let i = ref top in
    let stop = ref false in
    while (not !stop) && !i >= 0 do
      let e = t.entries.(!i) in
      if admissible e.vc then begin
        for w = 0 to n - 1 do
          let v = Vclock.get e.vc w in
          if v > acc.(w) then acc.(w) <- v
        done;
        if reached () then stop := true
      end;
      decr i
    done;
    (Vclock.unsafe_of_array acc [@owned])
  end

let size t = t.len

(* Drop entries [0, from): shift the suffix down and rebuild prefix maxima,
   seeding with the dropped prefix's maximum so visibility bounds never
   regress because of garbage collection (the pruned transactions stay
   inside every later snapshot). *)
let drop_prefix t ~from =
  let new_len = t.len - from in
  let entries = Array.make (Array.length t.entries) t.entries.(0) in
  Array.blit t.entries from entries 0 new_len;
  t.entries <- entries;
  t.len <- new_len;
  let seed = t.pmax.(from - 1) in
  let pmax = Array.make (Array.length t.pmax) t.pmax.(0) in
  let prev = ref seed in
  for i = 0 to new_len - 1 do
    let vc = t.entries.(i).vc in
    let m = Array.init t.nodes (fun w -> Stdlib.max !prev.(w) (Vclock.get vc w)) in
    pmax.(i) <- m;
    prev := m
  done;
  t.pmax <- pmax

let prune_covered t ~watermark =
  (* Drop the longest prefix of entries entry-wise covered by [watermark]
     (coveredness is not prefix-closed along the log, so later covered
     entries may survive — that is only a missed opportunity, never an
     error), always keeping at least one entry. *)
  let rec scan i =
    if i >= t.len - 1 then i
    else if Vclock.leq t.entries.(i).vc watermark then scan (i + 1)
    else i
  in
  let from = scan 0 in
  if from > 0 then begin
    (* fold the dropped contributions into the floor BEFORE the rebuild;
       pmax rows are cumulative (and already >= the current floor), so the
       last dropped row is exactly the new floor.  Fresh array: floor rows
       are shared with readers and must stay write-once. *)
    t.floor_max <- Array.copy t.pmax.(from - 1);
    drop_prefix t ~from
  end;
  from

let floor t = Vclock.of_array t.floor_max

let restore_floor t f = t.floor_max <- Array.init t.nodes (fun w -> Vclock.get f w)

let entries t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.entries.(i) :: acc) in
  List.rev (go (t.len - 1) [])
