(* A sorted dynamic array of integer stamps.  The parked-writer sets it
   indexes hold the handful of in-flight update transactions of one node,
   so the O(n) memmove on insert/remove is noise; what matters is that the
   min-stamp / first-above queries the read path issues per read are O(1)
   and O(log n) instead of a hash-table fold. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 8 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

(* index of the first element > x (= t.len if none) *)
let upper_bound t x =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get t.data mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let add t x =
  if t.len = Array.length t.data then begin
    let data = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  let i = upper_bound t x in
  Array.blit t.data i t.data (i + 1) (t.len - i);
  t.data.(i) <- x;
  t.len <- t.len + 1

let remove t x =
  let i = upper_bound t (x - 1) in
  (* first element >= x *)
  if i < t.len && t.data.(i) = x then begin
    Array.blit t.data (i + 1) t.data i (t.len - i - 1);
    t.len <- t.len - 1;
    true
  end
  else false

let min_elt t = if t.len = 0 then None else Some t.data.(0)

let first_above t x =
  let i = upper_bound t x in
  if i < t.len then Some t.data.(i) else None

let mem t x =
  let i = upper_bound t (x - 1) in
  i < t.len && t.data.(i) = x

let exists_leq t x = t.len > 0 && t.data.(0) <= x

let exists_below t x = t.len > 0 && t.data.(0) < x

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []
