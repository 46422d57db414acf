type entry = { txn : Ids.txn; vc : Vclock.t; ws : Ids.key list }

(* Entries are kept in append order (the node-local clock component
   strictly increases with it) in columns of 64-entry blocks: entry [i]'s
   clock in [vcs] (the caller's published clock, shared, never copied),
   and in [ints] its packed txn at [2i] and, at [2i + 1], where its write
   set starts in the flat key column [ws] (it ends where entry [i + 1]'s
   starts).  Every 16th entry also keeps the prefix maximum up to it in
   [rows], so any prefix maximum costs at most 15 clock folds. *)
let bits = 6

let stride = 4 (* log2 of the row spacing *)

let last_in_row = (1 lsl stride) - 1

type t = {
  node : int;
  nodes : int;
  mutable vcs : Vclock.t array Col.t;
  mutable ints : int array Col.t;
  mutable ws : int array Col.t;
  mutable rows : Vclock.t array Col.t;  (* row g: max over the seed and entries 0..16g *)
  mutable top_max : Vclock.t;  (* max over the seed and every entry = committed max *)
  mutable floor_max : Vclock.t;
      (* entrywise max over entries dropped by prune_covered: they were
         below the cluster low-watermark, hence admissible for every live
         and future visibility query, so constrained queries seed their
         accumulator here.  Write-once (replaced wholesale), so shared. *)
}

(* Block and spine filler: an empty clock pins nothing. *)
let clocks n = Array.make n (Vclock.zero 0)

(* Empty columns whose prefix maxima start from [seed]. *)
let reset t ~seed =
  t.vcs <- Col.create ~bits;
  t.ints <- Col.create ~bits:(bits + 1);
  t.ws <- Col.create ~bits:8;
  t.rows <- Col.create ~bits:(bits - stride);
  t.top_max <- seed

let size t = Col.length t.vcs

let vc t i = Col.get t.vcs i

let row t i = Col.get t.rows (i lsr stride)

let ws_start t i = Col.get t.ints ((2 * i) + 1)

let ws_stop t i = if i + 1 < size t then ws_start t (i + 1) else Col.length t.ws

(* Append an entry (its write-set keys are pushed next).  [ints] (two
   slots an entry) and [rows] (one per 16) fill up with [vcs]. *)
let[@hot] append t packed vc =
  if Col.full t.vcs then begin
    (Col.grow t.vcs clocks [@alloc_ok]);
    (Col.grow t.ints Col.ints [@alloc_ok]);
    (Col.grow t.rows clocks [@alloc_ok])
  end;
  let i = Col.claim t.vcs in
  Col.set t.vcs i vc;
  Col.set t.ints (Col.claim t.ints) packed;
  Col.set t.ints (Col.claim t.ints) (Col.length t.ws);
  (* shares a dominating clock: logged clocks are published, so immutable *)
  t.top_max <- Vclock.max t.top_max vc;
  if i land last_in_row = 0 then Col.set t.rows (Col.claim t.rows) t.top_max

let[@hot] add t ~txn ~vc ~ws =
  append t (Ids.pack txn) vc;
  Col.push_list t.ws ws

let create ~nodes ~node =
  let zero = Vclock.zero nodes and c () = Col.create ~bits in
  let t =
    { node; nodes; vcs = c (); ints = c (); ws = c (); rows = c (); top_max = zero; floor_max = zero }
  in
  reset t ~seed:zero;
  append t (Ids.pack Ids.genesis) zero;
  t

let most_recent_vc t = vc t (size t - 1)

let most_recent_local t = Vclock.get (most_recent_vc t) t.node

let committed_max t = t.top_max

(* The prefix maximum at entry [i] as a fresh clock: its row, then the
   entries after the row's. *)
let prefix t i =
  let acc = Vclock.copy (row t i) in
  for j = (i land lnot last_in_row) + 1 to i do
    (Vclock.max_into acc (vc t j) [@owned])
  done;
  acc

(* Largest index whose entry has local component < cutoff (entries are
   strictly increasing in the local component). *)
let last_below t cutoff =
  if cutoff = max_int then size t - 1
  else begin
    let rec search lo hi best =
      if lo > hi then best
      else
        let mid = (lo + hi) / 2 in
        if Vclock.get (vc t mid) t.node < cutoff then search (mid + 1) hi mid
        else search lo (mid - 1) best
    in
    search 0 (size t - 1) (-1)
  end

(* [vc] is within [bound] on every node [w' < w] that [has_read]. *)
let rec admissible ~has_read ~bound vc w =
  w = 0
  || (((not has_read.(w - 1)) || Vclock.get vc (w - 1) <= Vclock.get bound (w - 1))
     && admissible ~has_read ~bound vc (w - 1))

let rec none_read has_read w = w = 0 || ((not has_read.(w - 1)) && none_read has_read (w - 1))

let rec reached acc ceiling w =
  w = 0 || (Vclock.get acc (w - 1) >= Vclock.get ceiling (w - 1) && reached acc ceiling (w - 1))

let visible_max t ~has_read ~bound ~cutoff =
  let n = t.nodes in
  let top = last_below t cutoff in
  if top < 0 then
    (* even with every retained entry excluded by the cutoff, entries
       dropped by a covered prune stay visible: they were below the
       low-watermark, so both admissible and (via the watermark's parked
       cap) below every present or future cutoff. *)
    t.floor_max
  else if none_read has_read n then
    (* the common first-contact read: shared, not copied, when [top] is
       the last entry or carries a row *)
    if top = size t - 1 then t.top_max
    else if top land last_in_row = 0 then row t top
    else prefix t top
  else begin
    (* Ceiling: on already-read nodes we are capped by the bound, elsewhere
       by the maximum over the cutoff prefix; stop once it is reached. *)
    let ceiling = prefix t top in
    for w = 0 to n - 1 do
      if has_read.(w) && Vclock.get bound w < Vclock.get ceiling w then
        (Vclock.set_into ceiling w (Vclock.get bound w) [@owned])
    done;
    (* seed with the covered-prune floor (all-zero unless prune_covered
       ran), so constrained queries keep the pruned entries' contributions
       exactly as if they were still in the log *)
    let acc = Vclock.copy t.floor_max in
    let i = ref top in
    while !i >= 0 do
      let e = vc t !i in
      if admissible ~has_read ~bound e n then begin
        (Vclock.max_into acc e [@owned]);
        if reached acc ceiling n then i := 0
      end;
      decr i
    done;
    acc
  end

(* Append entries [from, upto) of [old]'s columns, with their write sets. *)
let copy_entries t ~old ~from ~upto =
  for i = from to upto - 1 do
    append t (Col.get old.ints (2 * i)) (vc old i);
    for k = ws_start old i to ws_stop old i - 1 do
      Col.push t.ws (Col.get old.ws k)
    done
  done

let prune_covered t ~watermark =
  (* Drop the longest prefix of entries entry-wise covered by [watermark]
     (coveredness is not prefix-closed along the log, so later covered
     entries may survive — that is only a missed opportunity, never an
     error), always keeping at least one entry. *)
  let len = size t in
  let rec scan i = if i < len - 1 && Vclock.leq (vc t i) watermark then scan (i + 1) else i in
  let from = scan 0 in
  if from > 0 then begin
    (* the dropped prefix's maximum is the new floor and seeds the kept
       entries' rows, so visibility bounds never regress because of
       garbage collection *)
    t.floor_max <- prefix t (from - 1);
    let old = { t with vcs = t.vcs } in
    reset t ~seed:t.floor_max;
    copy_entries t ~old ~from ~upto:len
  end;
  from

let floor t = Vclock.copy t.floor_max

let entries t =
  List.rev
    (List.init (size t) (fun i ->
         let ws = List.init (ws_stop t i - ws_start t i) (fun k -> Col.get t.ws (ws_start t i + k)) in
         { txn = Ids.unpack (Col.get t.ints (2 * i)); vc = vc t i; ws }))

(* A checkpoint image is a frozen view of the log's columns, its maxima
   and its floor.  Appends write through [Col.set], which copies a block
   an image still holds, so the image never sees a later entry. *)
type image = t

let image t =
  let f = Col.freeze in
  { t with vcs = f t.vcs; ints = f t.ints; ws = f t.ws; rows = f t.rows }

(* The genesis entry, which every log starts from, is not priced. *)
let image_bytes img =
  let entry i = if Col.get img.ints (2 * i) = 0 then 0 else 24 + Vcodec.raw_size (vc img i) in
  let rec go i acc = if i < 0 then acc else go (i - 1) (acc + entry i) in
  go (size img - 1) ((4 * Col.length img.ws) + Vcodec.raw_size img.floor_max)

(* The restored log is the imaged one, sharing its blocks. *)
let restore t img =
  let f = Col.thaw in
  t.vcs <- f img.vcs;
  t.ints <- f img.ints;
  t.ws <- f img.ws;
  t.rows <- f img.rows;
  t.top_max <- img.top_max;
  t.floor_max <- img.floor_max
