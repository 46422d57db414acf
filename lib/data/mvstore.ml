(* Struct-of-arrays version store; the layout is in mvstore.mli and
   docs/ARCHITECTURE.md "The version store".  Beyond what they say:

   - a slot's [next] link doubles as the free-list link of recycled
     slots, and a free slot holds [no_clock], so it pins no clock;
   - every write goes through [Col.wblock], so a checkpoint image shares
     each slot block until the store next writes to it;
   - chains only ever change by head-prepend ([install]) or suffix-drop
     ([truncate_covered]), so a version's newer neighbour, which the image
     byte model prices it against, is stable for the version's lifetime;
   - [total] and the [mem] counters are maintained incrementally, except
     the clock gauge, which [mem_words] computes. *)

type version = { value : string; vc : Vclock.t; writer : Ids.txn }

type slot = int

(* Genesis pseudo-slots encode the key handle: handle h <-> slot [-2 - h]
   ([-1] is reserved as the nil chain link). *)
let gslot h = -2 - h

let ghandle s = -2 - s

(* g_state bytes *)
let g_derived = '\000' (* implicit genesis present, value = "init:<key>" *)

let g_dropped = '\001' (* genesis collected *)

let no_value = ""

(* Free-slot clock: the empty clock is a static atom, so it pins nothing,
   and growing the column with it never forces the minor collection that
   [Array.make] runs to fill a large array with a young block. *)
let no_clock = Vclock.zero 0

type block = {
  value : string array;
  writer : int array;  (* Ids.pack *)
  clock : Vclock.t array;  (* the writer's published clock *)
  next : int array;  (* next-older slot, -1 end; free-list link *)
}

let bits = 6

let block n =
  { value = Array.make n no_value; writer = Array.make n (-1); clock = Array.make n no_clock;
    next = Array.make n (-1) }

let copy_block b =
  { value = Array.copy b.value; writer = Array.copy b.writer; clock = Array.copy b.clock;
    next = Array.copy b.next }

type t = {
  nodes : int;
  zero : Vclock.t;  (* genesis versions' clock *)
  (* handle -> key: the node's replica keys, strictly ascending, held by
     reference (the caller's array is never mutated); a key's handle is
     its position, found by binary search *)
  key_of : int array;
  head : int array;  (* handle -> newest explicit slot, -1 if none *)
  g_state : Bytes.t;  (* handle -> implicit-genesis state *)
  mutable slots : block Col.t;  (* version slots; its length is the slot high-water mark *)
  mutable free_slot : int;
  mutable free_slots : int;
  mutable total : int;
  mutable value_words : int;
  (* GC sweep cursor: handles are visited highest-first, the bound frozen
     per pass; gc-on trajectories depend on this order *)
  mutable sweep_hi : int;
  mutable sweep_pos : int;
}

let rec ascending (keys : int array) i =
  i >= Array.length keys || (keys.(i - 1) < keys.(i) && ascending keys (i + 1))

let create ~nodes ~keys =
  let keys =
    if ascending keys 1 then keys
    else Array.of_list (List.sort_uniq Int.compare (Array.to_list keys))
  in
  let n = Array.length keys in
  { nodes; zero = Vclock.zero nodes; key_of = keys; head = Array.make n (-1);
    g_state = Bytes.make n g_derived; slots = Col.create ~bits; free_slot = -1; free_slots = 0;
    total = n; value_words = 0; sweep_hi = 0; sweep_pos = 0 }

(* words a string of [len] bytes occupies on the heap (header + padded data) *)
let str_words len = 1 + ((len + 8) / 8)

let genesis_present t h = Bytes.unsafe_get t.g_state h <> g_dropped

(* ---- key -> handle ---- *)

let[@hot] find_handle t k =
  let h = Replication.handle t.key_of k in
  if h < 0 then raise Not_found else h

let mem t k = Replication.handle t.key_of k >= 0

let chains t = Array.length t.key_of

let version_count t = t.total

(* ---- slot access ---- *)

let blk t s = Array.unsafe_get t.slots.blocks (s lsr bits)

let pos s = s land ((1 lsl bits) - 1)

let next t s = Array.unsafe_get (blk t s).next (pos s)

let clock t s = Array.unsafe_get (blk t s).clock (pos s)

let writer t s = Array.unsafe_get (blk t s).writer (pos s)

let value t s = (blk t s).value.(pos s)

(* Slot [s]'s block, for writing. *)
let[@hot] wblk t s = Col.wblock t.slots s copy_block

(* ---- reads ---- *)

let[@hot] last t k =
  let h = find_handle t k in
  let s = Array.unsafe_get t.head h in
  if s >= 0 then s
  else begin
    assert (genesis_present t h);
    gslot h
  end

let slot_value t s = if s >= 0 then value t s else Ids.boot_value t.key_of.(ghandle s)

let slot_writer t s = if s >= 0 then Ids.unpack (writer t s) else Ids.genesis

let[@hot] slot_writer_is t s w =
  if s >= 0 then writer t s = Ids.pack w
  else Ids.equal_txn w Ids.genesis

(* The first non-skipped version at or below [s].  Toplevel recursion
   keeps [select]'s spine allocation-free (R8): the only allocations on a
   select are whatever [skip] itself does. *)
let[@hot] rec select_from t h s ~skip =
  let b = blk t s and p = pos s in
  let nx = Array.unsafe_get b.next p in
  if nx >= 0 then if skip (Array.unsafe_get b.clock p) then select_from t h nx ~skip else s
  else if genesis_present t h && skip (Array.unsafe_get b.clock p) then gslot h
  else s

let[@hot] select t k ~skip =
  let h = find_handle t k in
  let s = Array.unsafe_get t.head h in
  if s < 0 then begin
    assert (genesis_present t h);
    gslot h
  end
  else select_from t h s ~skip

let chain t k =
  let h = find_handle t k in
  let rec older s acc =
    if s < 0 then acc
    else
      older (next t s) ({ value = value t s; vc = clock t s; writer = Ids.unpack (writer t s) } :: acc)
  in
  let oldest_first = older t.head.(h) [] in
  List.rev
    (if genesis_present t h then
       { value = slot_value t (gslot h); vc = t.zero; writer = Ids.genesis } :: oldest_first
     else oldest_first)

(* ---- writes ---- *)

let alloc_slot t =
  if t.free_slot >= 0 then begin
    let s = t.free_slot in
    t.free_slot <- next t s;
    t.free_slots <- t.free_slots - 1;
    s
  end
  else Col.slot t.slots block

let[@hot] install t k ~value ~vc ~writer =
  let h = find_handle t k in
  let s = alloc_slot t in
  let b = wblk t s and p = pos s in
  Array.unsafe_set b.value p value;
  Array.unsafe_set b.writer p (Ids.pack writer);
  Array.unsafe_set b.clock p vc;
  Array.unsafe_set b.next p (Array.unsafe_get t.head h);
  Array.unsafe_set t.head h s;
  t.total <- t.total + 1;
  t.value_words <- t.value_words + str_words (String.length value)

(* ---- garbage collection ---- *)

(* Free the slot [s] and everything older, dropping each slot's value and
   clock.  Returns the count. *)
let free_tail t s0 =
  let freed = ref 0 in
  let s = ref s0 in
  while !s >= 0 do
    let c = !s in
    let b = wblk t c and p = pos c in
    let nx = b.next.(p) in
    b.clock.(p) <- no_clock;
    t.value_words <- t.value_words - str_words (String.length b.value.(p));
    b.value.(p) <- no_value;
    b.next.(p) <- t.free_slot;
    t.free_slot <- c;
    t.free_slots <- t.free_slots + 1;
    incr freed;
    s := nx
  done;
  t.total <- t.total - !freed;
  !freed

let drop_genesis t h =
  Bytes.set t.g_state h g_dropped;
  t.total <- t.total - 1

(* The newest covered version at or below [s] keeps everything newer;
   everything older is unreachable and goes.  Returns the count. *)
let[@hot] rec truncate_from t h s ~watermark =
  if Vclock.leq (clock t s) watermark then begin
    let tail = next t s in
    let d = if tail >= 0 then (Array.unsafe_set (wblk t s).next (pos s) (-1); free_tail t tail) else 0 in
    if genesis_present t h then (drop_genesis t h; d + 1) else d
  end
  else
    let nx = next t s in
    (* no explicit version covered: the genesis, if still present, is the
       covered one and has nothing older *)
    if nx >= 0 then truncate_from t h nx ~watermark else 0

let truncate_covered_h t h ~watermark =
  let s = t.head.(h) in
  (* a genesis-only chain is covered with nothing older *)
  if s < 0 then 0 else truncate_from t h s ~watermark

let truncate_covered t k ~watermark =
  truncate_covered_h t (find_handle t k) ~watermark

let sweep_covered t ~watermark ~budget =
  let dropped = ref 0 in
  let n = ref budget in
  while !n > 0 do
    if t.sweep_pos >= t.sweep_hi then begin
      t.sweep_hi <- Array.length t.key_of;
      t.sweep_pos <- 0;
      if t.sweep_hi = 0 then n := 0
    end;
    if !n > 0 then begin
      let h = t.sweep_hi - 1 - t.sweep_pos in
      dropped := !dropped + truncate_covered_h t h ~watermark;
      t.sweep_pos <- t.sweep_pos + 1;
      decr n
    end
  done;
  !dropped

let keys t = Array.to_list t.key_of

(* ---- checkpoint images ---- *)

(* A frozen store: copies of the head and state columns and a view of the
   slot blocks; the key array stays with the store. *)
type image = { frozen : t; bytes : int }

(* A clock below its chain's head, priced as the sparse delta against its
   newer neighbour (an index byte and the zig-zag varint of each differing
   entry) when its [1 + 2k] ints would undercut the [nodes + 1] of a raw
   clock, else raw at 8 bytes an entry. *)
let older_clock_bytes t ~newer older =
  let k = ref 0 and bytes = ref 0 in
  for i = 0 to t.nodes - 1 do
    let d = Vclock.get newer i - Vclock.get older i in
    if d <> 0 then begin
      incr k;
      bytes := !bytes + 1 + Vcodec.varint_size d
    end
  done;
  if 1 + (2 * !k) < t.nodes + 1 then !bytes else 8 * t.nodes

(* On-disk size model: a compact writer would emit the key index, the live
   slots verbatim, head clocks raw and older clocks as above. *)
let disk_bytes t =
  let nkeys = Array.length t.key_of in
  let bytes = ref (64 + (17 * nkeys)) in
  for h = 0 to nkeys - 1 do
    let s = ref t.head.(h) in
    if !s >= 0 then bytes := !bytes + (8 * t.nodes);
    while !s >= 0 do
      let c = !s and nx = next t !s in
      bytes := !bytes + 12 + String.length (value t c);
      if nx >= 0 then bytes := !bytes + older_clock_bytes t ~newer:(clock t c) (clock t nx);
      s := nx
    done
  done;
  !bytes

let image_of t =
  let frozen =
    { t with key_of = [||]; head = Array.copy t.head; g_state = Bytes.copy t.g_state;
             slots = Col.freeze t.slots }
  in
  { frozen; bytes = disk_bytes t }

let image_bytes im = im.bytes

let restore t { frozen = f; _ } =
  if f.nodes <> t.nodes || Array.length f.head <> Array.length t.head then
    invalid_arg "Mvstore.restore: image of a differently shaped store";
  Array.blit f.head 0 t.head 0 (Array.length t.head);
  Bytes.blit f.g_state 0 t.g_state 0 (Bytes.length t.g_state);
  t.slots <- Col.thaw f.slots;
  t.free_slot <- f.free_slot;
  t.free_slots <- f.free_slots;
  t.total <- f.total;
  t.value_words <- f.value_words;
  t.sweep_hi <- f.sweep_hi;
  t.sweep_pos <- f.sweep_pos

(* ---- resident-storage accounting ---- *)

type mem = {
  versions : int;
  slot_words : int;
  clock_words : int;
  index_words : int;
  value_words : int;
  free_slots : int;
}

(* A transaction has one commit clock, which its whole write set shares:
   a header and [nodes] entries per distinct writer of a live slot. *)
let clock_words t =
  let ws = Array.make (Col.length t.slots - t.free_slots) 0 and n = ref 0 in
  for h = 0 to Array.length t.head - 1 do
    let s = ref t.head.(h) in
    while !s >= 0 do
      ws.(!n) <- writer t !s;
      incr n;
      s := next t !s
    done
  done;
  Array.sort Int.compare ws;
  let distinct = ref 0 in
  Array.iteri (fun i w -> if i = 0 || w <> ws.(i - 1) then incr distinct) ws;
  !distinct * (1 + t.nodes)

let mem_words t =
  {
    versions = t.total;
    slot_words =
      (Col.used t.slots * (5 + (4 * ((1 lsl bits) + 1))))
      + Array.length t.slots.blocks
      + ((Bytes.length t.slots.shared + 8) / 8)
      + 12;
    clock_words = clock_words t;
    index_words =
      Array.length t.key_of + Array.length t.head
      + ((Bytes.length t.g_state + 8) / 8)
      + 8;
    value_words = t.value_words;
    free_slots = t.free_slots;
  }

let mem_zero =
  { versions = 0; slot_words = 0; clock_words = 0; index_words = 0; value_words = 0; free_slots = 0 }

let mem_add a b =
  { versions = a.versions + b.versions; slot_words = a.slot_words + b.slot_words;
    clock_words = a.clock_words + b.clock_words; index_words = a.index_words + b.index_words;
    value_words = a.value_words + b.value_words; free_slots = a.free_slots + b.free_slots }

let mem_total m = m.slot_words + m.clock_words + m.index_words + m.value_words

let words_per_version m =
  if m.versions = 0 then 0.0 else float_of_int (mem_total m) /. float_of_int m.versions
