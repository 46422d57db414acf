(* The blessed event queue: a calendar/ladder queue specialized for the
   timestamp distributions the simulator's network models produce (a dense
   cluster of events within a few tens of microseconds of [now], plus a thin
   tail of far-future timers).

   Structure:

   - a window of [nb] *buckets*, each [width] virtual seconds wide, covering
     [origin, origin + nb*width).  A push whose time falls in the window is
     an O(1) append to its bucket's unsorted stack; the cursor advances by
     probing bucket sizes from [cur + 1].
   - the *current* bucket is drained in place: each pop scans its stack for
     the (time, key) minimum and swap-deletes it.  Occupancy is a handful
     of events (bursts of a protocol cascade), so the scan is a few
     contiguous float compares — no sift writes, no copying.  Same-bucket
     pushes (delay-0 wakeups, the highest-volume events) append to it
     directly; a rare burst of many events on one microsecond costs a
     longer scan per pop while it drains, nothing more.
   - the *overflow* rung: a min-heap for events at or beyond the horizon
     (timers).  When the window drains, the queue re-anchors at the
     earliest overflow event and migrates the events that now fall inside
     the window into buckets.

   Order is the caller's total order (time, key): ties in time are broken by
   the int [key], which the simulator sets to its event sequence number —
   unique, so pop order is fully determined regardless of rung internals,
   and matches a global sort by (time, seq) exactly.  The global
   minimum always lives in the current bucket: appends to it are bounded by
   its upper edge, future buckets start at or above that edge, and the
   overflow rung starts at the horizon.

   Storage is struct-of-arrays: times live in flat [float array]s (no boxed
   floats on push/pop), keys are immediate ints, and the payload is an
   (fn, arg) pair applied on pop — [fn] is a long-lived closure and [arg]
   its argument, so scheduling allocates nothing.  Every slot is recycled
   in place; popped and drained slots are overwritten with poison values so
   spent closures are not kept alive and (in debug builds) reuse of a dead
   slot fails fast.  The (time, key) "less than" test is written out inline
   at each use site rather than as a helper: without flambda a call to a
   comparator boxes both float arguments, which at several comparisons per
   heap level would dominate the engine's allocation profile. *)

type fn = Obj.t -> unit

let dummy_fn : fn = fun _ -> ()

let dummy_arg : Obj.t = Obj.repr ()

(* The overflow rung: binary min-heap on (time, key), struct-of-arrays. *)
type rung = {
  mutable h_times : float array;
  mutable h_keys : int array;
  mutable h_fns : fn array;
  mutable h_args : Obj.t array;
  mutable h_size : int;
}

(* A bucket: unsorted stack, struct-of-arrays. *)
type bucket = {
  mutable b_times : float array;
  mutable b_keys : int array;
  mutable b_fns : fn array;
  mutable b_args : Obj.t array;
  mutable b_size : int;
}

(* Scalar floats that are written on the hot path live in [fl] (a flat float
   array) rather than as mutable record fields: a mutable float field of a
   mixed record is boxed, so every store would allocate. *)
let f_origin = 0

let f_horizon = 1

let f_pop_time = 2

(* Tuned to the network models: 1 microsecond buckets, a ~1 ms window.
   Self-delivery (1us), CPU service (2us) and LAN latency (20us +
   exponential jitter) all land well inside the window; retry backoffs and
   await timeouts (0.5 ms - 0.1 s) take the overflow rung. *)
let nb = 1024

let width = 1e-6

let inv_width = 1.0 /. width

let span = width *. float_of_int nb

type t = {
  buckets : bucket array;
  overflow : rung;
  fl : float array;
  mutable cur : int;  (* current bucket index; drained in place *)
  mutable in_window : int;  (* events parked in buckets strictly after [cur] *)
  mutable size : int;  (* total events across buckets and overflow *)
  (* Index of the current bucket's (time, key) minimum, or -1 when it must
     be rescanned.  [min_time] followed by [pop] shares one scan, and an
     append only compares itself against the cached minimum. *)
  mutable sc_i : int;
  mutable pop_key : int;
  mutable pop_fn : fn;
  mutable pop_arg : Obj.t;
}

let mk_bucket () =
  { b_times = [||]; b_keys = [||]; b_fns = [||]; b_args = [||]; b_size = 0 }

(* Filler for the bucket array before its own buckets go in: seeded from a
   fresh (young) bucket, an [Array.make] of more than 256 slots runs a minor
   collection first. *)
let vacant = mk_bucket ()

let create () =
  let fl = Array.make 3 0.0 in
  fl.(f_horizon) <- span;
  let buckets = Array.make nb vacant in
  for i = 0 to nb - 1 do
    buckets.(i) <- mk_bucket ()
  done;
  {
    buckets;
    overflow = { h_times = [||]; h_keys = [||]; h_fns = [||]; h_args = [||]; h_size = 0 };
    fl;
    cur = 0;
    in_window = 0;
    size = 0;
    sc_i = -1;
    pop_key = 0;
    pop_fn = dummy_fn;
    pop_arg = dummy_arg;
  }

let length t = t.size

let is_empty t = t.size = 0

(* ---- rung (heap) operations ---- *)

let[@hot] rung_grow r =
  let cap = Array.length r.h_times in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let nt = Array.make ncap 0.0
  and nk = Array.make ncap 0
  and nf = Array.make ncap dummy_fn
  and na = Array.make ncap dummy_arg in
  Array.blit r.h_times 0 nt 0 r.h_size;
  Array.blit r.h_keys 0 nk 0 r.h_size;
  Array.blit r.h_fns 0 nf 0 r.h_size;
  Array.blit r.h_args 0 na 0 r.h_size;
  r.h_times <- nt;
  r.h_keys <- nk;
  r.h_fns <- nf;
  r.h_args <- na

let[@hot] rung_push r time key fn arg =
  if r.h_size = Array.length r.h_times then rung_grow r;
  let ts = r.h_times and ks = r.h_keys and fs = r.h_fns and xs = r.h_args in
  let i = ref r.h_size in
  r.h_size <- r.h_size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = Array.unsafe_get ts p and pk = Array.unsafe_get ks p in
    if time < pt || (time = pt && key < pk) then begin
      Array.unsafe_set ts !i pt;
      Array.unsafe_set ks !i pk;
      Array.unsafe_set fs !i (Array.unsafe_get fs p);
      Array.unsafe_set xs !i (Array.unsafe_get xs p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set ts !i time;
  Array.unsafe_set ks !i key;
  Array.unsafe_set fs !i fn;
  Array.unsafe_set xs !i arg

(* precondition: r.h_size > 0.  Writes the minimum into t's popped slots and
   re-establishes the heap, poisoning the vacated tail slot. *)
let[@hot] rung_pop r t =
  let ts = r.h_times and ks = r.h_keys and fs = r.h_fns and xs = r.h_args in
  t.fl.(f_pop_time) <- Array.unsafe_get ts 0;
  t.pop_key <- Array.unsafe_get ks 0;
  t.pop_fn <- Array.unsafe_get fs 0;
  t.pop_arg <- Array.unsafe_get xs 0;
  let n = r.h_size - 1 in
  r.h_size <- n;
  let lt = Array.unsafe_get ts n and lk = Array.unsafe_get ks n in
  let lf = Array.unsafe_get fs n and lx = Array.unsafe_get xs n in
  Array.unsafe_set fs n dummy_fn;
  Array.unsafe_set xs n dummy_arg;
  if n > 0 then begin
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r' = l + 1 in
        let c =
          if
            r' < n
            &&
            let rt = Array.unsafe_get ts r' and lt' = Array.unsafe_get ts l in
            rt < lt'
            || (rt = lt' && Array.unsafe_get ks r' < Array.unsafe_get ks l)
          then r'
          else l
        in
        let ct = Array.unsafe_get ts c and ck = Array.unsafe_get ks c in
        if ct < lt || (ct = lt && ck < lk) then begin
          Array.unsafe_set ts !i ct;
          Array.unsafe_set ks !i ck;
          Array.unsafe_set fs !i (Array.unsafe_get fs c);
          Array.unsafe_set xs !i (Array.unsafe_get xs c);
          i := c
        end
        else moving := false
      end
    done;
    Array.unsafe_set ts !i lt;
    Array.unsafe_set ks !i lk;
    Array.unsafe_set fs !i lf;
    Array.unsafe_set xs !i lx
  end

(* ---- bucket operations ---- *)

let[@hot] bucket_grow b =
  let cap = Array.length b.b_times in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let nt = Array.make ncap 0.0
  and nk = Array.make ncap 0
  and nf = Array.make ncap dummy_fn
  and na = Array.make ncap dummy_arg in
  Array.blit b.b_times 0 nt 0 b.b_size;
  Array.blit b.b_keys 0 nk 0 b.b_size;
  Array.blit b.b_fns 0 nf 0 b.b_size;
  Array.blit b.b_args 0 na 0 b.b_size;
  b.b_times <- nt;
  b.b_keys <- nk;
  b.b_fns <- nf;
  b.b_args <- na

let[@inline] bucket_push b time key fn arg =
  if b.b_size = Array.length b.b_times then bucket_grow b;
  let i = b.b_size in
  b.b_size <- i + 1;
  Array.unsafe_set b.b_times i time;
  Array.unsafe_set b.b_keys i key;
  Array.unsafe_set b.b_fns i fn;
  Array.unsafe_set b.b_args i arg

(* Index of [b]'s (time, key) minimum, using the cache when valid.
   precondition: b.b_size > 0 and b is the current bucket. *)
let[@hot] bucket_min_idx t b =
  let c = t.sc_i in
  if c >= 0 then c
  else begin
    let ts = b.b_times and ks = b.b_keys in
    let bi = ref 0 in
    for j = 1 to b.b_size - 1 do
      let tj = Array.unsafe_get ts j and tb = Array.unsafe_get ts !bi in
      if tj < tb || (tj = tb && Array.unsafe_get ks j < Array.unsafe_get ks !bi)
      then bi := j
    done;
    t.sc_i <- !bi;
    !bi
  end

(* Remove slot [i] from the current bucket into t's popped slots: the last
   element moves into the hole and the vacated tail slot is poisoned. *)
let[@hot] take_bucket t b i =
  t.fl.(f_pop_time) <- Array.unsafe_get b.b_times i;
  t.pop_key <- Array.unsafe_get b.b_keys i;
  t.pop_fn <- Array.unsafe_get b.b_fns i;
  t.pop_arg <- Array.unsafe_get b.b_args i;
  let n = b.b_size - 1 in
  b.b_size <- n;
  Array.unsafe_set b.b_times i (Array.unsafe_get b.b_times n);
  Array.unsafe_set b.b_keys i (Array.unsafe_get b.b_keys n);
  Array.unsafe_set b.b_fns i (Array.unsafe_get b.b_fns n);
  Array.unsafe_set b.b_args i (Array.unsafe_get b.b_args n);
  Array.unsafe_set b.b_fns n dummy_fn;
  Array.unsafe_set b.b_args n dummy_arg;
  t.sc_i <- -1

(* ---- push ---- *)

let[@hot] push t ~time ~key fn arg =
  t.size <- t.size + 1;
  let fl = t.fl in
  if time >= Array.unsafe_get fl f_horizon then
    rung_push t.overflow time key fn arg
  else begin
    let idx = int_of_float ((time -. Array.unsafe_get fl f_origin) *. inv_width) in
    (* clamp: float rounding may land exactly on nb even though
       time < horizon; monotonicity in [time] is preserved. *)
    let idx = if idx >= nb then nb - 1 else idx in
    if idx <= t.cur then begin
      (* current-bucket append; delay-0 pushes (wakeups, serve kicks) take
         this path *)
      let b = Array.unsafe_get t.buckets t.cur in
      let i = b.b_size in
      bucket_push b time key fn arg;
      if i = 0 then t.sc_i <- 0
      else begin
        let c = t.sc_i in
        if c >= 0 then begin
          let mt = Array.unsafe_get b.b_times c in
          if time < mt || (time = mt && key < Array.unsafe_get b.b_keys c) then t.sc_i <- i
        end
      end
    end
    else begin
      bucket_push (Array.unsafe_get t.buckets idx) time key fn arg;
      t.in_window <- t.in_window + 1
    end
  end

(* ---- pop ---- *)

(* Re-anchor the window at the earliest overflow event and migrate every
   overflow event that now falls inside it into buckets. *)
let[@hot] re_anchor t =
  let ov = t.overflow in
  let fl = t.fl in
  let origin = ov.h_times.(0) in
  let horizon = origin +. span in
  fl.(f_origin) <- origin;
  fl.(f_horizon) <- horizon;
  (* -1, not 0: the migrated minimum lands in bucket 0, and the advance
     probe starts at [cur + 1].  No push can observe the transient value —
     re-anchoring happens inside a pop. *)
  t.cur <- -1;
  while ov.h_size > 0 && Array.unsafe_get ov.h_times 0 < horizon do
    rung_pop ov t;
    let time = Array.unsafe_get fl f_pop_time in
    let idx = int_of_float ((time -. origin) *. inv_width) in
    let idx = if idx >= nb then nb - 1 else idx in
    bucket_push (Array.unsafe_get t.buckets idx) time t.pop_key t.pop_fn t.pop_arg;
    t.in_window <- t.in_window + 1
  done

(* Ensure the current bucket holds the globally minimal event (advancing
   over empty buckets and re-anchoring from overflow as needed).  Returns
   false iff the queue is empty.  On return with [true], [t.cur] is a valid
   bucket index. *)
let[@hot] rec ensure_avail t =
  if t.cur >= 0 && (Array.unsafe_get t.buckets t.cur).b_size > 0 then true
  else if t.size = 0 then false
  else if t.in_window > 0 then begin
    (* advance to the next occupied bucket; [in_window] > 0 guarantees one
       before [nb] *)
    let i = ref (t.cur + 1) in
    while t.buckets.(!i).b_size = 0 do
      incr i
    done;
    t.cur <- !i;
    t.sc_i <- -1;
    t.in_window <- t.in_window - (Array.unsafe_get t.buckets !i).b_size;
    true
  end
  else begin
    re_anchor t;
    ensure_avail t
  end

let[@hot] pop t =
  if not (ensure_avail t) then false
  else begin
    let b = Array.unsafe_get t.buckets t.cur in
    take_bucket t b (bucket_min_idx t b);
    t.size <- t.size - 1;
    true
  end

let[@inline] popped_time t = Array.unsafe_get t.fl f_pop_time

(* Apply the popped event's [fn] to its [arg], clearing the slots first so
   the payload is unreachable from the queue while (and after) it runs. *)
let[@inline] run_popped t =
  let fn = t.pop_fn and arg = t.pop_arg in
  t.pop_fn <- dummy_fn;
  t.pop_arg <- dummy_arg;
  fn arg

(* Smallest time in the queue without removing anything; [infinity] when
   empty.  May advance internal cursors (observationally pure). *)
let min_time t =
  if not (ensure_avail t) then infinity
  else begin
    let b = Array.unsafe_get t.buckets t.cur in
    Array.unsafe_get b.b_times (bucket_min_idx t b)
  end

(* ---- dead-entry hooks (the simulator's cancelled timers) ---- *)

let[@inline] popped_is t fn = t.pop_fn == fn

let[@inline] popped_arg t = t.pop_arg

let[@inline] drop_popped t =
  t.pop_fn <- dummy_fn;
  t.pop_arg <- dummy_arg

(* ---- filter and release: cold paths ---- *)

(* Pack the slots among the first [n] whose [keep fn arg] holds to the
   front, in their current order, and poison the vacated tail.  Returns the
   survivor count. *)
let compact_slots keep ts ks fs xs n =
  let j = ref 0 in
  for i = 0 to n - 1 do
    let f = fs.(i) and x = xs.(i) in
    if keep f x then begin
      ts.(!j) <- ts.(i);
      ks.(!j) <- ks.(i);
      fs.(!j) <- f;
      xs.(!j) <- x;
      incr j
    end
  done;
  for i = !j to n - 1 do
    fs.(i) <- dummy_fn;
    xs.(i) <- dummy_arg
  done;
  !j

let rung_resize r ncap =
  let n = r.h_size in
  let nt = Array.make ncap 0.0
  and nk = Array.make ncap 0
  and nf = Array.make ncap dummy_fn
  and na = Array.make ncap dummy_arg in
  Array.blit r.h_times 0 nt 0 n;
  Array.blit r.h_keys 0 nk 0 n;
  Array.blit r.h_fns 0 nf 0 n;
  Array.blit r.h_args 0 na 0 n;
  r.h_times <- nt;
  r.h_keys <- nk;
  r.h_fns <- nf;
  r.h_args <- na

let swap a i j =
  let v = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- v

(* Restore the heap property below [i] for a heap of [n] slots. *)
let rec sift_down r i n =
  let ts = r.h_times and ks = r.h_keys in
  let l = (2 * i) + 1 in
  if l < n then begin
    let c =
      let rr = l + 1 in
      if rr < n && (ts.(rr) < ts.(l) || (ts.(rr) = ts.(l) && ks.(rr) < ks.(l))) then rr else l
    in
    if ts.(c) < ts.(i) || (ts.(c) = ts.(i) && ks.(c) < ks.(i)) then begin
      swap ts i c;
      swap ks i c;
      swap r.h_fns i c;
      swap r.h_args i c;
      sift_down r c n
    end
  end

(* Drop a rung's rejected entries, re-heapify bottom-up, and give back
   capacity once the survivors fill at most a quarter of it. *)
let filter_rung r keep =
  let n = r.h_size in
  let m = compact_slots keep r.h_times r.h_keys r.h_fns r.h_args n in
  r.h_size <- m;
  for i = (m / 2) - 1 downto 0 do
    sift_down r i m
  done;
  let cap = Array.length r.h_times in
  if cap > 16 && 4 * m <= cap then begin
    let ncap = ref 16 in
    while !ncap < 2 * m do
      ncap := 2 * !ncap
    done;
    rung_resize r !ncap
  end;
  n - m

let filter t keep =
  let dropped = ref (filter_rung t.overflow keep) in
  Array.iteri
    (fun i b ->
      let n = b.b_size in
      let m = compact_slots keep b.b_times b.b_keys b.b_fns b.b_args n in
      b.b_size <- m;
      dropped := !dropped + (n - m);
      (* buckets strictly after [cur] are counted in [in_window]; buckets
         before it are drained *)
      if i > t.cur then t.in_window <- t.in_window - (n - m))
    t.buckets;
  t.sc_i <- -1;
  t.size <- t.size - !dropped

let release t =
  if t.size <> 0 then invalid_arg "Equeue.release: queue not empty";
  let ov = t.overflow in
  ov.h_times <- [||];
  ov.h_keys <- [||];
  ov.h_fns <- [||];
  ov.h_args <- [||];
  Array.iter
    (fun b ->
      b.b_times <- [||];
      b.b_keys <- [||];
      b.b_fns <- [||];
      b.b_args <- [||])
    t.buckets;
  t.sc_i <- -1
