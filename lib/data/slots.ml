(* Columns indexed by the transaction ids one node mints.  Local ids are
   dense and minted in order per node ([Ids.Gen]), so slot [i] holds local
   id [lo + i]: a payload, a stamp and a state byte (0 = absent), about two
   words a slot where a table pays a bucket, a boxed key and a record.
   Slots come in blocks of 64 ([Col]); [retain] refills them from the first
   slot it keeps, which is how ids retire. *)

type 'a block = { vals : 'a array; times : Float.Array.t; states : Bytes.t }

(* [lo] is slot 0's local id. *)
type 'a t = { owner : Ids.node; mutable lo : int; mutable slots : 'a block Col.t }

let create ~node = { owner = node; lo = 0; slots = Col.create ~bits:6 }

let length m = Col.length m.slots

let value m i = (Col.block m.slots i).vals.(Col.pos m.slots i)

let time m i = Float.Array.get (Col.block m.slots i).times (Col.pos m.slots i)

let state m i = Bytes.get_uint8 (Col.block m.slots i).states (Col.pos m.slots i)

(* The slot of [txn]; -1 when it is foreign, outside the column or absent. *)
let[@hot] find m (txn : Ids.txn) =
  let i = txn.local - m.lo in
  if txn.node <> m.owner || i < 0 || i >= length m || state m i = 0 then -1 else i

let copy_block b =
  { vals = Array.copy b.vals; times = Float.Array.copy b.times; states = Bytes.copy b.states }

(* Move [txn]'s slot from state [from] to [st]; otherwise nothing. *)
let shift m txn ~from st =
  let i = find m txn in
  if i >= 0 && state m i = from then
    Bytes.set_uint8 (Col.wblock m.slots i copy_block).states (Col.pos m.slots i) st

(* Fill local id [l]'s slot, opening absent ones up to it; [v] fills the
   payloads of the blocks that opens. *)
let[@hot] rec place m l v ~st ~now =
  let i = l - m.lo in
  if i < length m then begin
    let b = Col.wblock m.slots i copy_block and p = Col.pos m.slots i in
    b.vals.(p) <- v;
    Float.Array.set b.times p now;
    Bytes.set_uint8 b.states p st
  end
  else begin
    if Col.full m.slots then
      (Col.grow m.slots (fun n ->
           { vals = Array.make n v; times = Float.Array.create n; states = Bytes.make n '\000' })
      [@alloc_ok]);
    ignore (Col.claim m.slots : int);
    place m l v ~st ~now
  end

(* Refill [m] with its present slots that [keep] accepts, payloads through
   [move], from local id [lo] (by default the first kept one's). *)
let retain ?lo m ~keep ~move =
  let old = { m with lo = m.lo } in
  let kept i = state old i <> 0 && keep old i in
  let rec first i = if i < length old && not (kept i) then first (i + 1) else i in
  m.lo <- Option.value lo ~default:(old.lo + first 0);
  m.slots <- Col.create ~bits:6;
  for i = 0 to length old - 1 do
    if kept i then place m (old.lo + i) (move (value old i)) ~st:(state old i) ~now:(time old i)
  done

(* Insert or replace [txn]'s slot; an id below the base moves the base. *)
let[@hot] set m (txn : Ids.txn) v ~st ~now =
  if txn.node <> m.owner then invalid_arg "Slots.set: foreign transaction";
  if txn.local < m.lo then
    (retain m ~lo:txn.local ~keep:(fun _ _ -> true) ~move:Fun.id [@alloc_ok]);
  place m txn.local v ~st ~now

(* An image is a frozen view ([Col.freeze]): it shares every block with
   the column until a write copies it, so it costs the spine. *)
type 'a image = 'a t

let freeze m = { m with slots = Col.freeze m.slots }

(* [f local v stamp state acc] over the image's present slots, in id
   order. *)
let fold f img acc =
  let acc = ref acc in
  for i = 0 to length img - 1 do
    if state img i <> 0 then acc := f (img.lo + i) (value img i) (time img i) (state img i) !acc
  done;
  !acc

(* Start [m] from the image's slots, sharing its blocks. *)
let thaw m img =
  m.lo <- img.lo;
  m.slots <- Col.thaw img.slots

(* A coordinator's write sets by transaction, for chasing a reader's
   [Remove] to the writers it was propagated to: a slot's payload is where
   the write set (length, then keys) starts in a flat key column.  Every
   4,096th [add] drops the entries inserted more than [horizon] earlier.
   Images price the live entries (16 bytes each, 4 a key); [restore]
   counts no insert. *)
module Memo = struct
  type nonrec t = { horizon : float; mutable ops : int; slots : int t;
                    mutable keys : int array Col.t }

  let create ~node ~horizon = { horizon; ops = 0; slots = create ~node; keys = Col.create ~bits:8 }

  (* Copy the write set at [a] in [old] to the end of [keys]; its new start. *)
  let copy_ws keys old a =
    let at = Col.length keys in
    for k = a to a + Col.get old a do Col.push keys (Col.get old k) done;
    at

  (* Keep the write sets inserted at or after [cutoff], and only their keys. *)
  let compact m ~cutoff =
    let old = m.keys in
    m.keys <- Col.create ~bits:8;
    retain m.slots ~keep:(fun s i -> time s i >= cutoff) ~move:(copy_ws m.keys old)

  let[@hot] add m ~txn ~ws ~now =
    set m.slots txn (Col.length m.keys) ~st:1 ~now;
    Col.push m.keys (List.length ws);
    Col.push_list m.keys ws;
    m.ops <- m.ops + 1;
    if m.ops land 4095 = 0 then (compact m ~cutoff:(now -. m.horizon) [@alloc_ok])

  let find m txn =
    let i = find m.slots txn in
    if i < 0 then None
    else
      let a = value m.slots i in
      Some (List.init (Col.get m.keys a) (fun k -> Col.get m.keys (a + 1 + k)))

  (* An image is a frozen view of both columns; it prices the present
     write sets alone, not the keys of replaced or dropped ones. *)
  type nonrec image = t

  let image m = { m with slots = freeze m.slots; keys = Col.freeze m.keys }

  let image_bytes img =
    fold (fun _ a _ _ acc -> acc + 16 + (4 * Col.get img.keys a)) img.slots 0

  let restore m img =
    m.keys <- Col.thaw img.keys;
    thaw m.slots img.slots
end
