(* Growable columns in fixed blocks of [2^bits] slots.  A block is
   allocated when its first slot is claimed, so spare capacity is at most
   one block and growth never copies a value; the spine of block pointers
   doubles.  The block type is the caller's ([int array], [Float.Array.t],
   a record of arrays).  A hot caller tests [full] and calls [grow] on its
   own cold branch; [slot] does both.

   Copy-on-write: [freeze] returns an immutable view (a copy of the spine
   and the length) that shares every block with the column.  A shared
   block is marked in [shared], and [wblock], the only way to a block for
   writing, copies a marked block before the first write to it, so no
   write ever reaches a view.  A view is itself a column whose blocks are
   all marked: [thaw] (which is [freeze]) starts a column from it that
   shares its blocks, and leaves the view reusable. *)

type 'b t = {
  bits : int;
  mutable blocks : 'b array;
  mutable shared : Bytes.t;  (* by spine slot: '\001' while a view may hold the block *)
  mutable n : int;
}

let create ~bits = { bits; blocks = [||]; shared = Bytes.empty; n = 0 }

let length c = c.n

let full c = c.n land ((1 lsl c.bits) - 1) = 0

(* Blocks in use. *)
let used c = (c.n + (1 lsl c.bits) - 1) lsr c.bits

(* Install the block [make (2^bits)] for the next slot ([make 0] fills a
   grown spine). *)
let grow c make =
  let b = c.n lsr c.bits in
  if b = Array.length c.blocks then begin
    c.blocks <- Array.append c.blocks (Array.make (Stdlib.max 4 b) (make 0));
    c.shared <- Bytes.extend c.shared 0 (Array.length c.blocks - b);
    Bytes.fill c.shared b (Array.length c.blocks - b) '\000'
  end;
  c.blocks.(b) <- make (1 lsl c.bits);
  Bytes.set c.shared b '\000'

(* The next slot's index; its block must exist. *)
let claim c =
  c.n <- c.n + 1;
  c.n - 1

let slot c make =
  if full c then grow c make;
  claim c

let block c i = c.blocks.(i lsr c.bits)

let pos c i = i land ((1 lsl c.bits) - 1)

(* An immutable view of [c], sharing its blocks; marks them in both. *)
let freeze c =
  let b = used c in
  Bytes.fill c.shared 0 b '\001';
  { c with blocks = Array.sub c.blocks 0 b; shared = Bytes.make b '\001' }

let thaw = freeze

let unshare c b copy =
  c.blocks.(b) <- copy c.blocks.(b);
  Bytes.set c.shared b '\000'

(* Slot [i]'s block, for writing: a block a view may hold is copied
   first. *)
let[@hot] wblock c i copy =
  let b = i lsr c.bits in
  if Bytes.get c.shared b <> '\000' then (unshare c b copy [@alloc_ok]);
  Array.unsafe_get c.blocks b

let get c i = (block c i).(pos c i)

let set c i v = (wblock c i Array.copy).(pos c i) <- v

(* A fresh block for an int column. *)
let ints n = Array.make n 0

let push c v = set c (slot c ints) v

let[@hot] rec push_list c = function
  | [] -> ()
  | v :: vs ->
      push c v;
      push_list c vs
