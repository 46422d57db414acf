(* Struct-of-arrays version store.

   Layout (docs/ARCHITECTURE.md "The version store"):

   - Keys intern to dense handles [0 .. nkeys).  [key_of]/[head] are the
     handle-indexed views; an open-addressing int map ([h_keys]/[h_vals])
     takes the public Ids.key to its handle (the only hash lookup on any
     path — the GC sweep walks handles).
   - Versions are slots in four parallel arrays ([v_value], [v_writer],
     [v_clock], [v_next]).  [v_next] links newest-to-oldest and doubles as
     the free-list link of recycled slots, so GC churn is in-place reuse
     rather than cons-cell turnover.
   - [v_clock] holds the clock passed to [install] by reference: the
     writer's published commit clock, which the node log and the CommitQ
     entry hold too, so a write set shares one clock and a read sees the
     slot's own clock, with nothing copied or decoded.  Free slots hold
     [no_clock], so a freed slot pins no clock.
   - Every key boots with a genesis version valued [Ids.boot_value], fully
     implicit: one state byte per key, value derived on demand.
     Chains therefore cost 0 slots until first written.

   Chains only ever change by head-prepend ([install]) or suffix-drop
   ([truncate_covered]), so a version's newer neighbour, which the image
   byte model prices it against, is stable for the version's lifetime.

   [total] maintains the store's version count incrementally so GC telemetry
   is O(1); the [mem] counters are maintained the same way, except the
   clock gauge, which [mem_words] computes. *)

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

(* vacant-probe sentinel of the key->handle map ([Ids.key] is never
   [min_int] — keys are small non-negative ints) *)
let hmap_empty = min_int

type t = {
  nodes : int;
  zero : Vclock.t;  (* genesis versions' clock *)
  (* key interning *)
  (* key -> handle map: open addressing with linear probing over two int
     arrays — ~2.7 words/binding at the 3/4 load cap, where Hashtbl's boxed
     buckets cost ~5; at 1M+ keys the interning table is itself a top-three
     heap consumer.  [h_keys] holds [hmap_empty] in vacant probes (bindings
     are never removed: a collected chain keeps its handle).  Capacity is
     always a power of two. *)
  mutable h_keys : int array;
  mutable h_vals : int array;
  mutable key_of : int array;  (* handle -> key *)
  mutable head : int array;  (* handle -> newest explicit slot, -1 if none *)
  mutable g_state : Bytes.t;  (* handle -> implicit-genesis state *)
  mutable nkeys : int;
  (* version slots *)
  mutable v_value : string array;
  mutable v_writer : int array;  (* Ids.pack *)
  mutable v_clock : Vclock.t array;  (* the writer's published clock *)
  mutable v_next : int array;  (* next-older slot, -1 end; free-list link *)
  mutable slot_top : int;
  mutable free_slot : int;
  mutable free_slots : int;
  mutable total : int;
  mutable value_words : int;
  (* GC sweep cursor: handles are visited newest-created-first, the bound
     frozen per pass — the exact order of the previous list-based store, so
     gc-on trajectories are unchanged *)
  mutable sweep_hi : int;
  mutable sweep_pos : int;
}

let create ~nodes =
  {
    nodes;
    zero = Vclock.zero nodes;
    h_keys = Array.make 256 hmap_empty;
    h_vals = Array.make 256 0;
    key_of = [||];
    head = [||];
    g_state = Bytes.empty;
    nkeys = 0;
    v_value = [||];
    v_writer = [||];
    v_clock = [||];
    v_next = [||];
    slot_top = 0;
    free_slot = -1;
    free_slots = 0;
    total = 0;
    value_words = 0;
    sweep_hi = 0;
    sweep_pos = 0;
  }

(* words a string of [len] bytes occupies on the heap (header + padded data) *)
let str_words len = 1 + ((len + 8) / 8)

let table_words tbl entry =
  let st = (Hashtbl.stats tbl [@order_ok]) in
  (Hashtbl.fold
     (fun _ v acc -> acc + entry v)
     tbl
     (st.Hashtbl.num_buckets + (4 * st.Hashtbl.num_bindings))
   [@order_ok])

let genesis_present t h = Bytes.unsafe_get t.g_state h <> g_dropped

(* ---- key -> handle map ---- *)

(* Fibonacci-style multiplicative mix; the fold of high into low bits keeps
   strided key patterns from clustering under the power-of-two mask. *)
let hmap_hash k mask =
  let h = k * 0x2545F4914F6CDD1D in
  ((h lsr 32) lxor h) land mask

let rec hmap_probe keys vals mask k i =
  let kk = Array.unsafe_get keys i in
  if kk = k then Array.unsafe_get vals i
  else if kk = hmap_empty then -1
  else hmap_probe keys vals mask k ((i + 1) land mask)

(* handle of [k], or -1 *)
let[@hot] hmap_find t k =
  let mask = Array.length t.h_keys - 1 in
  hmap_probe t.h_keys t.h_vals mask k (hmap_hash k mask)

let rec hmap_vacant keys mask k i =
  let kk = Array.unsafe_get keys i in
  if kk = hmap_empty || kk = k then i
  else hmap_vacant keys mask k ((i + 1) land mask)

let hmap_put t k v =
  let mask = Array.length t.h_keys - 1 in
  let i = hmap_vacant t.h_keys mask k (hmap_hash k mask) in
  t.h_keys.(i) <- k;
  t.h_vals.(i) <- v

(* rehash every live handle into fresh arrays of capacity [cap] *)
let hmap_rebuild t cap =
  t.h_keys <- Array.make cap hmap_empty;
  t.h_vals <- Array.make cap 0;
  for h = 0 to t.nkeys - 1 do
    hmap_put t t.key_of.(h) h
  done

let[@hot] find_handle t k =
  let h = hmap_find t k in
  if h < 0 then raise Not_found else h

let mem t k = hmap_find t k >= 0

let chains t = t.nkeys

let version_count t = t.total

(* ---- growth ---- *)

let grow_keys t =
  let cap = Array.length t.key_of in
  let ncap = if cap = 0 then 256 else 2 * cap in
  let nk = Array.make ncap (-1) and nh = Array.make ncap (-1) in
  Array.blit t.key_of 0 nk 0 cap;
  Array.blit t.head 0 nh 0 cap;
  t.key_of <- nk;
  t.head <- nh;
  let ng = Bytes.make ncap g_dropped in
  Bytes.blit t.g_state 0 ng 0 cap;
  t.g_state <- ng

let grow_slots t =
  let cap = Array.length t.v_next in
  let ncap = if cap = 0 then 256 else 2 * cap in
  let grow a fill =
    let n = Array.make ncap fill in
    Array.blit a 0 n 0 cap;
    n
  in
  t.v_value <- grow t.v_value no_value;
  t.v_writer <- grow t.v_writer (-1);
  t.v_clock <- grow t.v_clock no_clock;
  t.v_next <- grow t.v_next (-1)

(* Pre-size the key index for [n] keys: exact dense arrays, next
   power-of-two map under the 3/4 load cap.  The boot path knows each
   node's replica count, and doubling slack on 1M-key clusters would
   otherwise dominate [mem_words]. *)
let reserve t n =
  if n > Array.length t.key_of then begin
    let nk = Array.make n (-1) and nh = Array.make n (-1) in
    Array.blit t.key_of 0 nk 0 t.nkeys;
    Array.blit t.head 0 nh 0 t.nkeys;
    t.key_of <- nk;
    t.head <- nh;
    let ng = Bytes.make n g_dropped in
    Bytes.blit t.g_state 0 ng 0 t.nkeys;
    t.g_state <- ng
  end;
  let cap = ref (Array.length t.h_keys) in
  while 4 * n > 3 * !cap do
    cap := 2 * !cap
  done;
  if !cap > Array.length t.h_keys then hmap_rebuild t !cap

let new_handle t k =
  if t.nkeys >= Array.length t.key_of then grow_keys t;
  let h = t.nkeys in
  t.nkeys <- h + 1;
  t.key_of.(h) <- k;
  t.head.(h) <- -1;
  Bytes.set t.g_state h g_dropped;
  if 4 * (h + 1) > 3 * Array.length t.h_keys then hmap_rebuild t (2 * Array.length t.h_keys);
  hmap_put t k h;
  h

(* ---- reads ---- *)

let[@hot] last t k =
  let h = find_handle t k in
  let s = Array.unsafe_get t.head h in
  if s >= 0 then s
  else begin
    assert (genesis_present t h);
    gslot h
  end

let slot_value t s = if s >= 0 then t.v_value.(s) else Ids.boot_value t.key_of.(ghandle s)

let slot_writer t s = if s >= 0 then Ids.unpack t.v_writer.(s) else Ids.genesis

let[@hot] slot_writer_is t s w =
  if s >= 0 then Array.unsafe_get t.v_writer s = Ids.pack w
  else Ids.equal_txn w Ids.genesis

(* The first non-skipped version at or below [s].  Toplevel recursion
   keeps [select]'s spine allocation-free (R8): the only allocations on a
   select are whatever [skip] itself does. *)
let[@hot] rec select_from t h s ~skip =
  let nx = Array.unsafe_get t.v_next s in
  if nx >= 0 then if skip (Array.unsafe_get t.v_clock s) then select_from t h nx ~skip else s
  else if genesis_present t h && skip (Array.unsafe_get t.v_clock s) then gslot h
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
      older t.v_next.(s)
        ({ value = t.v_value.(s); vc = t.v_clock.(s); writer = Ids.unpack t.v_writer.(s) } :: acc)
  in
  let oldest_first = older t.head.(h) [] in
  List.rev
    (if genesis_present t h then
       { value = slot_value t (gslot h); vc = t.zero; writer = Ids.genesis } :: oldest_first
     else oldest_first)

(* ---- writes ---- *)

let init_key t k =
  if hmap_find t k < 0 then begin
    let h = new_handle t k in
    Bytes.set t.g_state h g_derived;
    t.total <- t.total + 1
  end

let alloc_slot t =
  if t.free_slot >= 0 then begin
    let s = t.free_slot in
    t.free_slot <- t.v_next.(s);
    t.free_slots <- t.free_slots - 1;
    s
  end
  else begin
    if t.slot_top >= Array.length t.v_next then grow_slots t;
    let s = t.slot_top in
    t.slot_top <- s + 1;
    s
  end

let[@hot] install t k ~value ~vc ~writer =
  let h = find_handle t k in
  let s = alloc_slot t in
  Array.unsafe_set t.v_value s value;
  Array.unsafe_set t.v_writer s (Ids.pack writer);
  Array.unsafe_set t.v_clock s vc;
  Array.unsafe_set t.v_next s (Array.unsafe_get t.head h);
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
    let nx = t.v_next.(c) in
    t.v_clock.(c) <- no_clock;
    t.value_words <- t.value_words - str_words (String.length t.v_value.(c));
    t.v_value.(c) <- no_value;
    t.v_next.(c) <- t.free_slot;
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
  if Vclock.leq (Array.unsafe_get t.v_clock s) watermark then begin
    let tail = Array.unsafe_get t.v_next s in
    let d = if tail >= 0 then (Array.unsafe_set t.v_next s (-1); free_tail t tail) else 0 in
    if genesis_present t h then (drop_genesis t h; d + 1) else d
  end
  else
    let nx = Array.unsafe_get t.v_next s in
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
      t.sweep_hi <- t.nkeys;
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

(* Sorted, so callers observe an order independent of table internals. *)
let keys t =
  let acc = ref [] in
  for h = t.nkeys - 1 downto 0 do
    acc := t.key_of.(h) :: !acc
  done;
  List.sort Int.compare !acc

(* ---- checkpoint images ---- *)

type image = {
  i_nodes : int;
  i_nkeys : int;
  i_key_of : int array;
  i_head : int array;
  i_g_state : Bytes.t;
  i_slot_top : int;
  i_value : string array;
  i_writer : int array;
  i_clock : Vclock.t array;
  i_next : int array;
  i_free_slot : int;
  i_free_slots : int;
  i_total : int;
  i_value_words : int;
  i_sweep_hi : int;
  i_sweep_pos : int;
  i_bytes : int;
}

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
  let bytes = ref (64 + (17 * t.nkeys)) in
  for h = 0 to t.nkeys - 1 do
    let s = ref t.head.(h) in
    if !s >= 0 then bytes := !bytes + (8 * t.nodes);
    while !s >= 0 do
      let c = !s and nx = t.v_next.(!s) in
      bytes := !bytes + 12 + String.length t.v_value.(c);
      if nx >= 0 then bytes := !bytes + older_clock_bytes t ~newer:t.v_clock.(c) t.v_clock.(nx);
      s := nx
    done
  done;
  !bytes

let image_of t =
  {
    i_nodes = t.nodes;
    i_nkeys = t.nkeys;
    i_key_of = Array.sub t.key_of 0 t.nkeys;
    i_head = Array.sub t.head 0 t.nkeys;
    i_g_state = Bytes.sub t.g_state 0 t.nkeys;
    i_slot_top = t.slot_top;
    i_value = Array.sub t.v_value 0 t.slot_top;
    i_writer = Array.sub t.v_writer 0 t.slot_top;
    i_clock = Array.sub t.v_clock 0 t.slot_top;
    i_next = Array.sub t.v_next 0 t.slot_top;
    i_free_slot = t.free_slot;
    i_free_slots = t.free_slots;
    i_total = t.total;
    i_value_words = t.value_words;
    i_sweep_hi = t.sweep_hi;
    i_sweep_pos = t.sweep_pos;
    i_bytes = disk_bytes t;
  }

let image_bytes im = im.i_bytes

let restore t im =
  if im.i_nodes <> t.nodes then invalid_arg "Mvstore.restore: cluster size mismatch";
  t.nkeys <- im.i_nkeys;
  t.key_of <- Array.copy im.i_key_of;
  t.head <- Array.copy im.i_head;
  t.g_state <- Bytes.of_string (Bytes.to_string im.i_g_state);
  let cap = ref 256 in
  while 4 * t.nkeys > 3 * !cap do
    cap := 2 * !cap
  done;
  hmap_rebuild t !cap;
  t.slot_top <- im.i_slot_top;
  t.v_value <- Array.copy im.i_value;
  t.v_writer <- Array.copy im.i_writer;
  t.v_clock <- Array.copy im.i_clock;
  t.v_next <- Array.copy im.i_next;
  t.free_slot <- im.i_free_slot;
  t.free_slots <- im.i_free_slots;
  t.total <- im.i_total;
  t.value_words <- im.i_value_words;
  t.sweep_hi <- im.i_sweep_hi;
  t.sweep_pos <- im.i_sweep_pos

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
  let ws = Array.make (t.slot_top - t.free_slots) 0 and n = ref 0 in
  for h = 0 to t.nkeys - 1 do
    let s = ref t.head.(h) in
    while !s >= 0 do
      ws.(!n) <- t.v_writer.(!s);
      incr n;
      s := t.v_next.(!s)
    done
  done;
  Array.sort Int.compare ws;
  let distinct = ref 0 in
  Array.iteri (fun i w -> if i = 0 || w <> ws.(i - 1) then incr distinct) ws;
  !distinct * (1 + t.nodes)

let mem_words t =
  {
    versions = t.total;
    slot_words = (4 * Array.length t.v_next) + 4;
    clock_words = clock_words t;
    index_words =
      Array.length t.key_of + Array.length t.head
      + ((Bytes.length t.g_state + 8) / 8)
      + Array.length t.h_keys + Array.length t.h_vals
      + 8;
    value_words = t.value_words;
    free_slots = t.free_slots;
  }

let mem_zero =
  {
    versions = 0;
    slot_words = 0;
    clock_words = 0;
    index_words = 0;
    value_words = 0;
    free_slots = 0;
  }

let mem_add a b =
  {
    versions = a.versions + b.versions;
    slot_words = a.slot_words + b.slot_words;
    clock_words = a.clock_words + b.clock_words;
    index_words = a.index_words + b.index_words;
    value_words = a.value_words + b.value_words;
    free_slots = a.free_slots + b.free_slots;
  }

let mem_total m = m.slot_words + m.clock_words + m.index_words + m.value_words

let words_per_version m =
  if m.versions = 0 then 0.0 else float_of_int (mem_total m) /. float_of_int m.versions
