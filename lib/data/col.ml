(* Growable columns in fixed blocks of [2^bits] slots.  A block is
   allocated when its first slot is claimed, so spare capacity is at most
   one block and growth never copies a value; the spine of block pointers
   doubles.  The block type is the caller's ([int array], [Float.Array.t],
   an array of shared pointers).  A hot caller tests [full] and calls
   [grow] on its own cold branch; [slot] does both. *)

type 'b t = { bits : int; mutable blocks : 'b array; mutable n : int }

let create ~bits = { bits; blocks = [||]; n = 0 }

let length c = c.n

let full c = c.n land ((1 lsl c.bits) - 1) = 0

(* Install the block [make (2^bits)] for the next slot ([make 0] fills a
   grown spine). *)
let grow c make =
  let b = c.n lsr c.bits in
  if b = Array.length c.blocks then
    c.blocks <- Array.append c.blocks (Array.make (Stdlib.max 4 b) (make 0));
  c.blocks.(b) <- make (1 lsl c.bits)

(* The next slot's index; its block must exist. *)
let claim c =
  c.n <- c.n + 1;
  c.n - 1

let slot c make =
  if full c then grow c make;
  claim c

let block c i = c.blocks.(i lsr c.bits)

let pos c i = i land ((1 lsl c.bits) - 1)

let get c i = (block c i).(pos c i)

let set c i v = (block c i).(pos c i) <- v

(* A fresh block for an int column. *)
let ints n = Array.make n 0

let push c v = set c (slot c ints) v

let[@hot] rec push_list c = function
  | [] -> ()
  | v :: vs ->
      push c v;
      push_list c vs
