(* A set of dense non-negative integer ids, one bit per id, for ids minted
   by a counter (transport tokens, node-local transaction numbers).

   Word [w] holds ids [w * width .. w * width + width - 1].  Slot [i] of
   [bits]/[stamps] is word [off + i]; words below [base] are retired and
   read as present, words at or above [top] are empty.  [stamps] keeps the
   time of each word's first insert, so a word whose stamp is older than
   [now - horizon] holds an id inserted that long ago, which proves that
   every id below the word was minted more than the horizon ago: ids are
   minted in increasing order and inserted no earlier than minted.  [scan]
   walks the words upward looking for that proof and retires everything
   below each stale word it meets.  Later inserts leave a word's stamp
   alone, so a straggler landing in an old word cannot hold retirement
   back.  An id is never removed, so a word is empty exactly when nothing
   was ever inserted into it; empty words carry no proof and the scan
   steps over them.

   The layout assumes 63-bit native ints, as [Ids.pack] does. *)

let width = 63

type t = {
  horizon : float;
  mutable bits : int array;
  mutable stamps : Float.Array.t;
  mutable off : int;  (* the word in slot 0 *)
  mutable base : int;  (* words below are retired *)
  mutable top : int;  (* one past the highest non-empty word *)
  mutable scan : int;  (* the next word retirement inspects; base <= scan <= top *)
  mutable count : int;  (* members in unretired words *)
}

let create ~horizon =
  {
    horizon;
    bits = [||];
    stamps = Float.Array.create 0;
    off = 0;
    base = 0;
    top = 0;
    scan = 0;
    count = 0;
  }

let cardinal t = t.count

let[@hot] mem t id =
  id >= 0
  &&
  let w = id / width in
  w < t.base
  ||
  let i = w - t.off in
  i < Array.length t.bits && (Array.unsafe_get t.bits i lsr (id - (w * width))) land 1 = 1

let popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

(* Move the live words [base, top) to a slot-0-aligned array of [cap]
   slots, reusing the current one when [cap] is its length. *)
let relocate t cap =
  let len = Array.length t.bits in
  let from = t.base - t.off and keep = t.top - t.base in
  let bits = if cap = len then t.bits else Array.make cap 0 in
  let stamps = if cap = len then t.stamps else Float.Array.make cap 0.0 in
  Array.blit t.bits from bits 0 keep;
  Float.Array.blit t.stamps from stamps 0 keep;
  (* an empty word's stamp is never read: only its bits need clearing *)
  if cap = len then Array.fill bits keep (len - keep) 0;
  t.bits <- bits;
  t.stamps <- stamps;
  t.off <- t.base

(* Make room for word [w] (>= base, past the last slot).  Reclaim the
   retired slots in place while that leaves at least half of the array
   free; otherwise double. *)
let grow t w =
  let need = w - t.base + 1 in
  let len = Array.length t.bits in
  relocate t (if 2 * need <= len then len else Int.max 8 (2 * need))

let retire_below t w =
  for j = t.base to w - 1 do
    t.count <- t.count - popcount (Array.unsafe_get t.bits (j - t.off))
  done;
  t.base <- w

let[@inline] advance t ~cutoff =
  let stop = ref false in
  while (not !stop) && t.scan < t.top do
    let i = t.scan - t.off in
    if Array.unsafe_get t.bits i = 0 then t.scan <- t.scan + 1
    else if Float.Array.unsafe_get t.stamps i < cutoff then begin
      retire_below t t.scan;
      t.scan <- t.scan + 1
    end
    else stop := true
  done

let[@inline] [@hot] add t id ~now =
  if id < 0 then invalid_arg "Idset.add: negative id";
  let w = id / width in
  if w >= t.base then begin
    if w - t.off >= Array.length t.bits then (grow t w [@alloc_ok]);
    let i = w - t.off in
    let m = 1 lsl (id - (w * width)) in
    let b = Array.unsafe_get t.bits i in
    if b land m = 0 then begin
      Array.unsafe_set t.bits i (b lor m);
      t.count <- t.count + 1;
      if b = 0 then Float.Array.unsafe_set t.stamps i now
    end;
    if w >= t.top then t.top <- w + 1;
    (* the scan word is empty or stale: retirement has work, at most once
       per word *)
    let j = t.scan - t.off in
    if
      t.scan < t.top
      && (Array.unsafe_get t.bits j = 0
         || Float.Array.unsafe_get t.stamps j < now -. t.horizon)
    then advance t ~cutoff:(now -. t.horizon)
  end

let copy t =
  let from = t.base - t.off and keep = t.top - t.base in
  {
    t with
    bits = Array.sub t.bits from keep;
    stamps = Float.Array.sub t.stamps from keep;
    off = t.base;
  }

module Txns = struct
  type set = t

  type t = { horizon : float; mutable origins : set array }

  let mem s (txn : Ids.txn) =
    txn.node >= 0 && txn.node < Array.length s.origins && mem s.origins.(txn.node) txn.local

  let add s (txn : Ids.txn) ~now =
    if txn.node < 0 then invalid_arg "Idset.Txns.add: no origin node";
    let n = Array.length s.origins in
    if txn.node >= n then
      s.origins <-
        Array.init (txn.node + 1) (fun o ->
            if o < n then s.origins.(o) else create ~horizon:s.horizon);
    add s.origins.(txn.node) txn.local ~now

  let create ~horizon = { horizon; origins = [||] }

  let cardinal s = Array.fold_left (fun acc o -> acc + cardinal o) 0 s.origins

  let copy s = { s with origins = Array.map copy s.origins }
end
