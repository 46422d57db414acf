let raw_size vc = 8 * Vclock.size vc

(* zig-zag maps signed deltas to unsigned so small negatives stay small *)
let zigzag n = if n >= 0 then 2 * n else (-2 * n) - 1

let varint_size n =
  let rec go z acc = if z < 0x80 then acc else go (z lsr 7) (acc + 1) in
  go (zigzag n) 1

let size vc =
  let bytes = ref 0 in
  for i = 0 to Vclock.size vc - 1 do
    bytes := !bytes + varint_size (Vclock.get vc i)
  done;
  !bytes
