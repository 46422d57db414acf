(* The newest value and writer of each of a node's replica keys: the
   single-version store of 2PC and ROCOCO.  Two columns by the key's
   handle, its position in the node's ascending key array
   ([Replication.handle]), which the store holds by reference.  Genesis
   is implicit: an unwritten key's writer is 0 ([Ids.genesis] packed) and
   it reads its boot value, so an idle key costs its column words and
   nothing else.  An image is a copy of both columns. *)

type t = { keys : Ids.key array; values : string array; writers : int array }

let create keys =
  let n = Array.length keys in
  { keys; values = Array.make n ""; writers = Array.make n 0 }

let[@hot] peek t h =
  if Array.unsafe_get t.writers h = 0 then (Ids.boot_value (Array.unsafe_get t.keys h) [@alloc_ok])
  else Array.unsafe_get t.values h

let writer t h = Ids.unpack t.writers.(h)

let writer_is t h w = t.writers.(h) = Ids.pack w

let set t h ~value ~writer =
  t.values.(h) <- value;
  t.writers.(h) <- Ids.pack writer

let copy t = { t with values = Array.copy t.values; writers = Array.copy t.writers }

(* [f h acc] over the written handles, in ascending key order. *)
let fold_written f t acc =
  let acc = ref acc in
  Array.iteri (fun h w -> if w <> 0 then acc := f h !acc) t.writers;
  !acc

(* Resident words under [Mvstore.mem_words]'s model: the record, the key
   array and both columns, and each written value. *)
let words t =
  fold_written
    (fun h a -> a + Mvstore.str_words (String.length t.values.(h)))
    t (4 + (3 * (Array.length t.keys + 1)))
