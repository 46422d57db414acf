(* Arena-backed struct-of-arrays version store.

   Layout (docs/ARCHITECTURE.md "The version store"):

   - Keys intern to dense handles [0 .. nkeys).  [key_of]/[head] are the
     handle-indexed views; an open-addressing int map ([h_keys]/[h_vals])
     takes the public Ids.key to its handle (the only hash lookup on any
     path — the GC sweep walks handles).
   - Versions are slots in four parallel arrays ([v_value], [v_writer],
     [v_clock], [v_next]).  [v_next] links newest-to-oldest and doubles as
     the free-list link of recycled slots, so GC churn is in-place reuse
     rather than cons-cell turnover.
   - [v_clock] is a tagged reference into one of two arenas: [-1] interns
     the all-zero genesis clock, [r <= -2] is the {e full} clock cell at
     [ca.(-r - 2)] ([refcount; entries...]), and [r >= 0] is the {e delta}
     cell at [da.(r)] ([npairs; idx, diff; ...]) against the slot's newer
     neighbour.  Heads always hold full cells, shared by refcount across a
     transaction's whole write set (the CommitQ drain re-passes one
     physical clock, which [alloc_full] memoizes); when [install] demotes
     the previous head it re-encodes the clock as a delta {e only if that
     is strictly smaller} ([1 + 2k < nodes + 1] words), otherwise the full
     cell stays — sparse-change neighbours compress, scattered ones never
     cost more than a full clock.  [select]/[truncate_covered] decode
     newest-first into the single [scratch] clock — no per-read allocation.
   - A genesis version whose value is the boot default ([Ids.boot_value]) is
     fully implicit: one state byte per key, value derived on demand.
     Chains therefore cost 0 slots until first written.

   Chains only ever change by head-prepend ([install]), suffix-drop
   ([truncate_covered]) or whole-chain replace ([restore_chain]),
   so a delta's newer neighbour is stable for the delta's whole lifetime.

   [total] maintains the store's version count incrementally so GC telemetry
   is O(1); all [mem] counters are maintained the same way. *)

type version = { value : string; vc : Vclock.t; writer : Ids.txn }

type slot = int

(* Genesis pseudo-slots encode the key handle: handle h <-> slot [-2 - h]
   ([-1] is reserved as the nil chain link). *)
let gslot h = -2 - h

let ghandle s = -2 - s

(* g_state bytes *)
let g_derived = '\000' (* implicit genesis present, value = "init:<key>" *)

let g_custom_v = '\001' (* implicit genesis present, value in [g_custom] *)

let g_dropped = '\002' (* genesis collected *)

let no_value = ""

(* vacant-probe sentinel of the key->handle map ([Ids.key] is never
   [min_int] — keys are small non-negative ints) *)
let hmap_empty = min_int

type t = {
  nodes : int;
  zero : Vclock.t;  (* shared by every decoded genesis version *)
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
  g_custom : (int, string) Hashtbl.t;  (* non-default genesis values (tests) *)
  mutable nkeys : int;
  (* version slots *)
  mutable v_value : string array;
  mutable v_writer : int array;  (* Ids.pack *)
  mutable v_clock : int array;  (* tagged: -1 zero | <= -2 [ca] cell | >= 0 [da] cell *)
  mutable v_next : int array;  (* next-older slot, -1 end; free-list link *)
  mutable slot_top : int;
  mutable free_slot : int;
  mutable free_slots : int;
  mutable total : int;
  mutable value_words : int;
  (* full-clock arena: cells of [1 + nodes] ints = [refcount; entries...];
     a free cell stores the free-list link in its refcount word *)
  mutable ca : int array;
  mutable ca_top : int;
  mutable ca_free : int;
  mutable ca_free_cells : int;
  (* write-set sharing memo: the cell holding the last physically installed
     clock (invalidated when that cell's refcount reaches zero) *)
  mutable memo_vc : Vclock.t;
  mutable memo_ref : int;
  (* delta arena: cells of [1 + 2k] ints = [k; idx, diff; ...]; per-class
     free lists (a free cell stores the link in its count word) *)
  mutable da : int array;
  mutable da_top : int;
  da_free : int array;  (* class k -> free-list head, -1 *)
  mutable da_free_words : int;
  (* GC sweep cursor: handles are visited newest-created-first, the bound
     frozen per pass — the exact order of the previous list-based store, so
     gc-on trajectories are unchanged *)
  mutable sweep_hi : int;
  mutable sweep_pos : int;
  (* scratch clock for newest-first decodes; [scratch_vc] is the Vclock
     view lent to [select]'s skip callback *)
  scratch : int array;
  scratch_vc : Vclock.t;
}

let create ~nodes =
  let scratch = Array.make nodes 0 in
  {
    nodes;
    zero = Vclock.zero nodes;
    h_keys = Array.make 256 hmap_empty;
    h_vals = Array.make 256 0;
    key_of = [||];
    head = [||];
    g_state = Bytes.empty;
    g_custom = Hashtbl.create 8;
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
    ca = [||];
    ca_top = 0;
    ca_free = -1;
    ca_free_cells = 0;
    memo_vc = Vclock.zero nodes;
    memo_ref = -1;
    da = [||];
    da_top = 0;
    da_free = Array.make (nodes + 1) (-1);
    da_free_words = 0;
    sweep_hi = 0;
    sweep_pos = 0;
    scratch;
    scratch_vc = (Vclock.unsafe_of_array scratch [@owned]);
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
  let nv = Array.make ncap no_value in
  Array.blit t.v_value 0 nv 0 cap;
  t.v_value <- nv;
  let grow a =
    let n = Array.make ncap (-1) in
    Array.blit a 0 n 0 cap;
    n
  in
  t.v_writer <- grow t.v_writer;
  t.v_clock <- grow t.v_clock;
  t.v_next <- grow t.v_next

let grow_ca t need =
  let cap = Array.length t.ca in
  let ncap = Stdlib.max (Stdlib.max (2 * cap) 256) (t.ca_top + need) in
  let n = Array.make ncap 0 in
  Array.blit t.ca 0 n 0 cap;
  t.ca <- n

let grow_da t need =
  let cap = Array.length t.da in
  let ncap = Stdlib.max (Stdlib.max (2 * cap) 256) (t.da_top + need) in
  let n = Array.make ncap 0 in
  Array.blit t.da 0 n 0 cap;
  t.da <- n

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

(* ---- arena cells ---- *)

let take_full_cell t =
  if t.ca_free >= 0 then begin
    let c = t.ca_free in
    t.ca_free <- t.ca.(c);
    t.ca_free_cells <- t.ca_free_cells - 1;
    c
  end
  else begin
    let cell = t.nodes + 1 in
    if t.ca_top + cell > Array.length t.ca then grow_ca t cell;
    let c = t.ca_top in
    t.ca_top <- t.ca_top + cell;
    c
  end

let[@hot] alloc_full t vc =
  if t.memo_ref >= 0 && vc == t.memo_vc then begin
    let c = t.memo_ref in
    Array.unsafe_set t.ca c (Array.unsafe_get t.ca c + 1);
    c
  end
  else begin
    let c = take_full_cell t in
    t.ca.(c) <- 1;
    Vclock.blit_into ~src:vc ~dst:t.ca ~pos:(c + 1);
    t.memo_vc <- vc;
    t.memo_ref <- c;
    c
  end

let release_full t c =
  let rc = t.ca.(c) - 1 in
  if rc = 0 then begin
    if t.memo_ref = c then t.memo_ref <- -1;
    t.ca.(c) <- t.ca_free;
    t.ca_free <- c;
    t.ca_free_cells <- t.ca_free_cells + 1
  end
  else t.ca.(c) <- rc

let alloc_delta t k =
  let d = t.da_free.(k) in
  if d >= 0 then begin
    t.da_free.(k) <- t.da.(d);
    t.da_free_words <- t.da_free_words - (1 + (2 * k));
    t.da.(d) <- k;
    d
  end
  else begin
    let cell = 1 + (2 * k) in
    if t.da_top + cell > Array.length t.da then grow_da t cell;
    let d = t.da_top in
    t.da_top <- t.da_top + cell;
    t.da.(d) <- k;
    d
  end

let release_delta t d =
  let k = t.da.(d) in
  t.da.(d) <- t.da_free.(k);
  t.da_free.(k) <- d;
  t.da_free_words <- t.da_free_words + (1 + (2 * k))

(* ---- newest-first clock decode ---- *)

(* scratch := full clock of the head slot [s] (heads are never deltas) *)
let[@hot] load_head_clock t s =
  let r = Array.unsafe_get t.v_clock s in
  if r = -1 then Array.fill t.scratch 0 t.nodes 0
  else Array.blit t.ca (-1 - r) t.scratch 0 t.nodes

(* scratch holds the clock of [s]'s newer neighbour; rewrite it into the
   clock of [s]: apply the delta, or load the cell outright for interned
   zeros and full-cell slots (absolute — the incoming scratch is unused) *)
let[@hot] step_clock t s =
  let r = Array.unsafe_get t.v_clock s in
  if r >= 0 then begin
    let da = t.da and sc = t.scratch in
    let k = Array.unsafe_get da r in
    for j = 0 to k - 1 do
      let idx = Array.unsafe_get da (r + 1 + (2 * j)) in
      let diff = Array.unsafe_get da (r + 2 + (2 * j)) in
      Array.unsafe_set sc idx (Array.unsafe_get sc idx - diff)
    done
  end
  else if r = -1 then Array.fill t.scratch 0 t.nodes 0
  else Array.blit t.ca (-1 - r) t.scratch 0 t.nodes

(* ---- reads ---- *)

let[@hot] last t k =
  let h = find_handle t k in
  let s = Array.unsafe_get t.head h in
  if s >= 0 then s
  else begin
    assert (genesis_present t h);
    gslot h
  end

let slot_value t s =
  if s >= 0 then t.v_value.(s)
  else begin
    let h = ghandle s in
    if Bytes.get t.g_state h = g_custom_v then Hashtbl.find t.g_custom h
    else Ids.boot_value t.key_of.(h)
  end

let slot_writer t s = if s >= 0 then Ids.unpack t.v_writer.(s) else Ids.genesis

let[@hot] slot_writer_is t s w =
  if s >= 0 then Array.unsafe_get t.v_writer s = Ids.pack w
  else Ids.equal_txn w Ids.genesis

(* scratch holds the clock of [s]; return the first non-skipped version at
   or below [s].  Toplevel recursion keeps [select]'s spine allocation-free
   (R8): the only allocations on a select are whatever [skip] itself does. *)
let[@hot] rec select_from t h s ~skip =
  let nx = Array.unsafe_get t.v_next s in
  if nx >= 0 then
    if skip t.scratch_vc then begin
      step_clock t nx;
      select_from t h nx ~skip
    end
    else s
  else if genesis_present t h && skip t.scratch_vc then gslot h
  else s

let[@hot] select t k ~skip =
  let h = find_handle t k in
  let s = Array.unsafe_get t.head h in
  if s < 0 then begin
    assert (genesis_present t h);
    gslot h
  end
  else begin
    load_head_clock t s;
    select_from t h s ~skip
  end

let chain t k =
  let h = find_handle t k in
  let acc = ref [] in
  let s = t.head.(h) in
  if s >= 0 then begin
    load_head_clock t s;
    let cur = ref s in
    let continue = ref true in
    while !continue do
      let c = !cur in
      acc :=
        {
          value = t.v_value.(c);
          vc = Vclock.of_array t.scratch;
          writer = Ids.unpack t.v_writer.(c);
        }
        :: !acc;
      let nx = t.v_next.(c) in
      if nx >= 0 then begin
        step_clock t nx;
        cur := nx
      end
      else continue := false
    done
  end;
  if genesis_present t h then
    acc := { value = slot_value t (gslot h); vc = t.zero; writer = Ids.genesis } :: !acc;
  List.rev !acc

(* ---- writes ---- *)

let init_key t k ~value =
  if hmap_find t k < 0 then begin
    let h = new_handle t k in
    if String.equal value (Ids.boot_value k) then Bytes.set t.g_state h g_derived
    else begin
      Bytes.set t.g_state h g_custom_v;
      Hashtbl.replace t.g_custom h value;
      t.value_words <- t.value_words + str_words (String.length value)
    end;
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

(* The previous head stops being newest: re-encode its full clock as the
   sparse delta against the incoming clock [vc] (the new head) — but only
   when the delta cell ([1 + 2k] words) is strictly smaller than the full
   cell it frees, so scattered-change neighbours never inflate the arena.
   An interned zero stays interned. *)
let demote t old ~vc =
  let r = t.v_clock.(old) in
  if r <= -2 then begin
    let c = -2 - r in
    let n = t.nodes in
    let npairs = ref 0 in
    for i = 0 to n - 1 do
      if Vclock.get vc i <> t.ca.(c + 1 + i) then incr npairs
    done;
    if 1 + (2 * !npairs) < n + 1 then begin
      let d = alloc_delta t !npairs in
      let j = ref (d + 1) in
      for i = 0 to n - 1 do
        let vi = Vclock.get vc i and ci = t.ca.(c + 1 + i) in
        if vi <> ci then begin
          t.da.(!j) <- i;
          t.da.(!j + 1) <- vi - ci;
          j := !j + 2
        end
      done;
      release_full t c;
      t.v_clock.(old) <- d
    end
  end

let[@hot] install t k ~value ~vc ~writer =
  let h = find_handle t k in
  let old = Array.unsafe_get t.head h in
  if old >= 0 then demote t old ~vc;
  let s = alloc_slot t in
  Array.unsafe_set t.v_value s value;
  Array.unsafe_set t.v_writer s (Ids.pack writer);
  Array.unsafe_set t.v_clock s (-2 - alloc_full t vc);
  Array.unsafe_set t.v_next s old;
  Array.unsafe_set t.head h s;
  t.total <- t.total + 1;
  t.value_words <- t.value_words + str_words (String.length value)

(* ---- garbage collection ---- *)

(* Free the slot [s] and everything older, releasing each slot's clock
   cell whichever arena it lives in.  Returns the count. *)
let free_tail t s0 =
  let freed = ref 0 in
  let s = ref s0 in
  while !s >= 0 do
    let c = !s in
    let nx = t.v_next.(c) in
    let r = t.v_clock.(c) in
    if r >= 0 then release_delta t r else if r <= -2 then release_full t (-2 - r);
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
  if Bytes.get t.g_state h = g_custom_v then begin
    let v = Hashtbl.find t.g_custom h in
    t.value_words <- t.value_words - str_words (String.length v);
    Hashtbl.remove t.g_custom h
  end;
  Bytes.set t.g_state h g_dropped;
  t.total <- t.total - 1

let truncate_covered_h t h ~watermark =
  let s = t.head.(h) in
  if s < 0 then 0 (* genesis-only chain: covered, nothing older *)
  else begin
    load_head_clock t s;
    let cur = ref s in
    let dropped = ref (-1) in
    while !dropped < 0 do
      let c = !cur in
      if Vclock.leq t.scratch_vc watermark then begin
        (* newest covered version: everything older is unreachable *)
        let tail = t.v_next.(c) in
        let d = if tail >= 0 then begin
            t.v_next.(c) <- -1;
            free_tail t tail
          end
          else 0
        in
        if genesis_present t h then begin
          drop_genesis t h;
          dropped := d + 1
        end
        else dropped := d
      end
      else begin
        let nx = t.v_next.(c) in
        if nx >= 0 then begin
          step_clock t nx;
          cur := nx
        end
        else
          (* no explicit version covered; the genesis (if still present) is
             the covered one and has nothing older *)
          dropped := 0
      end
    done;
    !dropped
  end

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

(* ---- whole-chain replacement (recovery, tests) ---- *)

let clear_chain t h =
  let s = t.head.(h) in
  if s >= 0 then begin
    ignore (free_tail t s);
    t.head.(h) <- -1
  end;
  if genesis_present t h then drop_genesis t h

(* encoded clock ref of [this] against its newer neighbour [newer]: a
   delta cell when strictly smaller than a full cell, else a full cell —
   the same tie-break [demote] applies *)
let alloc_clock_between t ~newer ~this =
  let n = t.nodes in
  let npairs = ref 0 in
  for i = 0 to n - 1 do
    if Vclock.get newer i <> Vclock.get this i then incr npairs
  done;
  if 1 + (2 * !npairs) >= n + 1 then -2 - alloc_full t this
  else begin
    let d = alloc_delta t !npairs in
    let j = ref (d + 1) in
    for i = 0 to n - 1 do
      let ni = Vclock.get newer i and ti = Vclock.get this i in
      if ni <> ti then begin
        t.da.(!j) <- i;
        t.da.(!j + 1) <- ni - ti;
        j := !j + 2
      end
    done;
    d
  end

let restore_chain t k versions =
  match versions with
  | [] -> ()
  | _ ->
      let h =
        match hmap_find t k with
        | h when h >= 0 ->
            clear_chain t h;
            h
        | _ -> new_handle t k
      in
      let arr = Array.of_list versions in
      let m = Array.length arr in
      let oldest = arr.(m - 1) in
      let implicit_genesis =
        Ids.equal_txn oldest.writer Ids.genesis && Vclock.is_zero oldest.vc
      in
      let e = if implicit_genesis then m - 1 else m in
      let prev = ref (-1) in
      for i = e - 1 downto 0 do
        let v = arr.(i) in
        let s = alloc_slot t in
        t.v_value.(s) <- v.value;
        t.value_words <- t.value_words + str_words (String.length v.value);
        t.v_writer.(s) <- Ids.pack v.writer;
        t.v_next.(s) <- !prev;
        t.v_clock.(s) <-
          (if Vclock.is_zero v.vc then -1
           else if i = 0 then -2 - alloc_full t v.vc
           else alloc_clock_between t ~newer:arr.(i - 1).vc ~this:v.vc);
        t.total <- t.total + 1;
        prev := s
      done;
      t.head.(h) <- !prev;
      if implicit_genesis then begin
        if String.equal oldest.value (Ids.boot_value k) then
          Bytes.set t.g_state h g_derived
        else begin
          Bytes.set t.g_state h g_custom_v;
          Hashtbl.replace t.g_custom h oldest.value;
          t.value_words <- t.value_words + str_words (String.length oldest.value)
        end;
        t.total <- t.total + 1
      end

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
  i_g_custom : (int * string) list;
  i_slot_top : int;
  i_value : string array;
  i_writer : int array;
  i_clock : int array;
  i_next : int array;
  i_free_slot : int;
  i_free_slots : int;
  i_total : int;
  i_value_words : int;
  i_ca : int array;
  i_ca_free : int;
  i_ca_free_cells : int;
  i_da : int array;
  i_da_free : int array;
  i_da_free_words : int;
  i_sweep_hi : int;
  i_sweep_pos : int;
  i_bytes : int;
}

(* On-disk size model: a compact writer would emit the key index, the live
   slots verbatim, head clocks raw (8 bytes/entry) and delta clocks with
   the wire's zig-zag varint codec. *)
let disk_bytes t =
  let bytes = ref (64 + (17 * t.nkeys)) in
  for h = 0 to t.nkeys - 1 do
    let s = ref t.head.(h) in
    while !s >= 0 do
      let c = !s in
      bytes := !bytes + 12 + String.length t.v_value.(c);
      let r = t.v_clock.(c) in
      if r >= 0 then begin
        let k = t.da.(r) in
        for j = 0 to k - 1 do
          bytes := !bytes + 1 + Vcodec.varint_size t.da.(r + 2 + (2 * j))
        done
      end
      else if r <= -2 then bytes := !bytes + (8 * t.nodes);
      s := t.v_next.(c)
    done;
    if genesis_present t h && Bytes.get t.g_state h = g_custom_v then
      bytes := !bytes + String.length (Hashtbl.find t.g_custom h)
  done;
  !bytes

let image_of t =
  {
    i_nodes = t.nodes;
    i_nkeys = t.nkeys;
    i_key_of = Array.sub t.key_of 0 t.nkeys;
    i_head = Array.sub t.head 0 t.nkeys;
    i_g_state = Bytes.sub t.g_state 0 t.nkeys;
    i_g_custom =
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Hashtbl.fold (fun h v acc -> (h, v) :: acc) t.g_custom [] [@order_ok]);
    i_slot_top = t.slot_top;
    i_value = Array.sub t.v_value 0 t.slot_top;
    i_writer = Array.sub t.v_writer 0 t.slot_top;
    i_clock = Array.sub t.v_clock 0 t.slot_top;
    i_next = Array.sub t.v_next 0 t.slot_top;
    i_free_slot = t.free_slot;
    i_free_slots = t.free_slots;
    i_total = t.total;
    i_value_words = t.value_words;
    i_ca = Array.sub t.ca 0 t.ca_top;
    i_ca_free = t.ca_free;
    i_ca_free_cells = t.ca_free_cells;
    i_da = Array.sub t.da 0 t.da_top;
    i_da_free = Array.copy t.da_free;
    i_da_free_words = t.da_free_words;
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
  Hashtbl.reset t.g_custom;
  List.iter (fun (h, v) -> Hashtbl.replace t.g_custom h v) im.i_g_custom;
  t.slot_top <- im.i_slot_top;
  t.v_value <- Array.copy im.i_value;
  t.v_writer <- Array.copy im.i_writer;
  t.v_clock <- Array.copy im.i_clock;
  t.v_next <- Array.copy im.i_next;
  t.free_slot <- im.i_free_slot;
  t.free_slots <- im.i_free_slots;
  t.total <- im.i_total;
  t.value_words <- im.i_value_words;
  t.ca <- Array.copy im.i_ca;
  t.ca_top <- Array.length im.i_ca;
  t.ca_free <- im.i_ca_free;
  t.ca_free_cells <- im.i_ca_free_cells;
  t.memo_ref <- -1;
  t.da <- Array.copy im.i_da;
  t.da_top <- Array.length im.i_da;
  Array.blit im.i_da_free 0 t.da_free 0 (Array.length t.da_free);
  t.da_free_words <- im.i_da_free_words;
  t.sweep_hi <- im.i_sweep_hi;
  t.sweep_pos <- im.i_sweep_pos

(* ---- resident-storage accounting ---- *)

type mem = {
  versions : int;
  slot_words : int;
  clock_words : int;
  clock_free_words : int;
  index_words : int;
  value_words : int;
  free_slots : int;
}

let mem_words t =
  {
    versions = t.total;
    slot_words = (4 * Array.length t.v_next) + 4;
    clock_words = Array.length t.ca + Array.length t.da + Array.length t.da_free + 3;
    clock_free_words = (t.ca_free_cells * (t.nodes + 1)) + t.da_free_words;
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
    clock_free_words = 0;
    index_words = 0;
    value_words = 0;
    free_slots = 0;
  }

let mem_add a b =
  {
    versions = a.versions + b.versions;
    slot_words = a.slot_words + b.slot_words;
    clock_words = a.clock_words + b.clock_words;
    clock_free_words = a.clock_free_words + b.clock_free_words;
    index_words = a.index_words + b.index_words;
    value_words = a.value_words + b.value_words;
    free_slots = a.free_slots + b.free_slots;
  }

let mem_total m = m.slot_words + m.clock_words + m.index_words + m.value_words

let words_per_version m =
  if m.versions = 0 then 0.0 else float_of_int (mem_total m) /. float_of_int m.versions
