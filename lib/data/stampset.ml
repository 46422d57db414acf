(* A sorted dynamic array of (stamp, txn) pairs, as two parallel arrays.
   The indexes it backs hold the handful of in-flight update transactions
   of one node, so the O(n) memmove on insert/remove is noise; what
   matters is that the min-stamp / first-above queries the read path
   issues per read are O(1) and O(log n) instead of a hash-table fold. *)

type t = { mutable stamps : int array; mutable txns : Ids.txn array; mutable len : int }

let create () = { stamps = Array.make 8 0; txns = Array.make 8 Ids.genesis; len = 0 }

let length t = t.len

(* index of the first pair not below (x, txn) (= t.len if none); every
   transaction is above [Ids.genesis], so [lower_bound t (x + 1) Ids.genesis]
   is the first stamp above [x] (stamps are clock values, below max_int) *)
let lower_bound t x txn =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let s = Array.unsafe_get t.stamps mid in
    if s < x || (s = x && Ids.compare_txn (Array.unsafe_get t.txns mid) txn < 0) then
      lo := mid + 1
    else hi := mid
  done;
  !lo

let add t x txn =
  if t.len = Array.length t.stamps then begin
    let grow a fill =
      let b = Array.make (2 * t.len) fill in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.stamps <- grow t.stamps 0;
    t.txns <- grow t.txns Ids.genesis
  end;
  let i = lower_bound t x txn in
  Array.blit t.stamps i t.stamps (i + 1) (t.len - i);
  Array.blit t.txns i t.txns (i + 1) (t.len - i);
  t.stamps.(i) <- x;
  t.txns.(i) <- txn;
  t.len <- t.len + 1

let remove t x txn =
  let i = lower_bound t x txn in
  if i < t.len && t.stamps.(i) = x && Ids.equal_txn t.txns.(i) txn then begin
    Array.blit t.stamps (i + 1) t.stamps i (t.len - i - 1);
    Array.blit t.txns (i + 1) t.txns i (t.len - i - 1);
    t.len <- t.len - 1;
    (* the vacated slot must not keep a retired transaction alive *)
    t.txns.(t.len) <- Ids.genesis;
    true
  end
  else false

let min_stamp t = if t.len = 0 then None else Some t.stamps.(0)

let min_txn t = if t.len = 0 then None else Some t.txns.(0)

let first_above t x =
  let i = lower_bound t (x + 1) Ids.genesis in
  if i < t.len then Some t.stamps.(i) else None

let exists_leq t x = t.len > 0 && t.stamps.(0) <= x

let exists_below t x = t.len > 0 && t.stamps.(0) < x

let exists_above t x f =
  let i = ref (lower_bound t (x + 1) Ids.genesis) in
  while !i < t.len && not (f t.txns.(!i)) do
    incr i
  done;
  !i < t.len

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) ((t.stamps.(i), t.txns.(i)) :: acc) in
  go (t.len - 1) []
