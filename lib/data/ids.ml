type node = int

type key = int

type txn = { node : node; local : int }

let genesis = { node = -1; local = 0 }

let boot_value k = "init:" ^ string_of_int k

let compare_txn a b =
  let c = Int.compare a.node b.node in
  if c <> 0 then c else Int.compare a.local b.local

let equal_txn a b = compare_txn a b = 0

let txn_to_string t =
  if equal_txn t genesis then "T<genesis>"
  else Printf.sprintf "T<%d.%d>" t.node t.local

let pp_txn fmt t = Format.pp_print_string fmt (txn_to_string t)

(* Dense single-word encoding for flat storage (Mvstore slot arrays).
   [node + 1] so that {!genesis} packs to 0; node ids fit comfortably above
   bit 40 and node-local counters never approach 2^40 in any run the
   simulator can finish. *)
let local_bits = 40

let pack { node; local } = ((node + 1) lsl local_bits) lor local

let unpack p =
  { node = (p lsr local_bits) - 1; local = p land ((1 lsl local_bits) - 1) }

module Gen = struct
  type nonrec t = { node : node; mutable counter : int }

  let create node = { node; counter = 0 }

  let next t =
    t.counter <- t.counter + 1;
    { node = t.node; local = t.counter }
end
