open Sss_data

(* A node's version chains: each key's versions newest first in write
   order, in slot columns over 64-slot [Col] blocks, with a head column by
   key handle (the key's position in the node's replica key array).  A
   version's site is its writer's node.  Versions are never dropped, so
   slots only append.  Genesis is implicit: an unwritten key's head is -1,
   and past every chain's end lies genesis, which every snapshot sees. *)
type block = {
  value : string array;
  writer : int array;  (* Ids.pack *)
  seq : int array;  (* the writer's position in its site's commit order *)
  start : Vclock.t array;  (* the writer's start snapshot, by reference *)
  next : int array;  (* next-older slot, -1 at the chain's end *)
}

type t = { keys : Ids.key array; head : int array; slots : block Col.t }

let block n =
  { value = Array.make n ""; writer = Array.make n 0; seq = Array.make n 0;
    start = Array.make n (Vclock.zero 0); next = Array.make n (-1) }

let copy_block b =
  { value = Array.copy b.value; writer = Array.copy b.writer; seq = Array.copy b.seq;
    start = Array.copy b.start; next = Array.copy b.next }

let create keys = { keys; head = Array.make (Array.length keys) (-1); slots = Col.create ~bits:6 }

let blk t s = Col.block t.slots s

let next t s = (blk t s).next.(Col.pos t.slots s)

(* Whether snapshot [start] covers slot [s]'s writer's commit. *)
let[@hot] covers t s start =
  let b = blk t s and p = Col.pos t.slots s in
  b.seq.(p) <= Vclock.get start (Ids.packed_node b.writer.(p))

let[@hot] rec visible t s ~start =
  if s < 0 || covers t s start then s else visible t (next t s) ~start

(* The newest version of handle [h] within the snapshot, -1 for genesis.
   The caller guarantees the snapshot is applied locally, so the first
   visible version in the write-ordered chain is the newest. *)
let[@hot] visible_read t h ~start = visible t t.head.(h) ~start

let value t h s = if s < 0 then Ids.boot_value t.keys.(h) else (blk t s).value.(Col.pos t.slots s)

let writer t s = if s < 0 then Ids.genesis else Ids.unpack (blk t s).writer.(Col.pos t.slots s)

(* PSI's write-write rule: a write is admissible if the key's newest
   version was visible in the writer's snapshot. *)
let ww_ok t h ~start = t.head.(h) < 0 || covers t t.head.(h) start

(* Insert in write order: write-write conflicts serialize same-key
   writers, so of two versions one writer's start snapshot covers the
   other's commit, and a version goes in front of the first it covers. *)
let install t h ~value ~writer ~seq ~start =
  let s = Col.slot t.slots block in
  let b = Col.wblock t.slots s copy_block and p = Col.pos t.slots s in
  b.value.(p) <- value;
  b.writer.(p) <- Ids.pack writer;
  b.seq.(p) <- seq;
  b.start.(p) <- start;
  let rec sink newer o =
    if o >= 0 && not (covers t o start) then sink o (next t o)
    else begin
      b.next.(p) <- o;
      if newer < 0 then t.head.(h) <- s
      else (Col.wblock t.slots newer copy_block).next.(Col.pos t.slots newer) <- s
    end
  in
  sink (-1) t.head.(h)

(* [f s acc] over the versions from slot [s] on, newest first. *)
let rec fold_chain t f s acc = if s < 0 then acc else fold_chain t f (next t s) (f s acc)

let chain t h = List.rev (fold_chain t (fun s l -> writer t s :: l) t.head.(h) [])

(* An image copies the head column and freezes the blocks ([Col.freeze]),
   which it shares until the chains write to them; restoring one thaws
   it the same way. *)
let freeze t = { t with head = Array.copy t.head; slots = Col.freeze t.slots }

(* Priced per written key, in ascending key order: 8 bytes, then each
   version's 24, its clock and its value. *)
let image_bytes t ~nodes =
  let version s a = a + 24 + (8 * nodes) + String.length (blk t s).value.(Col.pos t.slots s) in
  Array.fold_left (fun acc s -> if s < 0 then acc else fold_chain t version s (acc + 8)) 0 t.head

(* Start clocks by physical identity: a write set shares one. *)
module Clocks = Hashtbl.Make (struct
  type t = Vclock.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Resident words under [Mvstore.mem_words]'s model: the record, the key
   array and the head column, the blocks and their spine, each version's
   value and each distinct start clock. *)
let words t =
  let clocks = Clocks.create 16 and n = Col.length t.slots in
  let w = ref (11 + (2 * Array.length t.keys) + Array.length t.slots.blocks) in
  w := !w + ((n + 63) / 64 * (6 + (5 * 65)));
  for s = 0 to n - 1 do
    let b = blk t s and p = Col.pos t.slots s in
    w := !w + Mvstore.str_words (String.length b.value.(p));
    if not (Clocks.mem clocks b.start.(p)) then begin
      Clocks.add clocks b.start.(p) ();
      w := !w + Vclock.size b.start.(p) + 1
    end
  done;
  !w
