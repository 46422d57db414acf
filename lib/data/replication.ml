type t = {
  nodes : int;
  degree : int;
  base : int array;  (* key -> first replica *)
  at : Ids.key array array;  (* node -> keys stored *)
}

(* splitmix64-style finalizer: spreads consecutive key ids uniformly. *)
let hash_key k =
  let z = Int64.add (Int64.of_int k) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.shift_right_logical (Int64.logxor z (Int64.shift_right_logical z 31)) 8)

let create ~nodes ~degree ~total_keys =
  if degree < 1 || degree > nodes then
    invalid_arg "Replication.create: degree must be within 1 .. nodes";
  let base = Array.init total_keys (fun k -> hash_key k mod nodes) in
  let buckets = Array.make nodes [] in
  for k = total_keys - 1 downto 0 do
    for j = 0 to degree - 1 do
      let n = (base.(k) + j) mod nodes in
      buckets.(n) <- k :: buckets.(n)
    done
  done;
  { nodes; degree; base; at = Array.map Array.of_list buckets }

let replicas t k = List.init t.degree (fun j -> (t.base.(k) + j) mod t.nodes)

let is_replica t n k =
  let d = (n - t.base.(k) + t.nodes) mod t.nodes in
  d < t.degree

let keys_at t n = t.at.(n)

(* The last position in [keys.(base) .. keys.(base + n - 1)] holding a key
   at most [k] ([base] if none), by binary search.  Each step's comparison
   feeds the next position arithmetically instead of choosing a branch:
   the node's keys are hashed over the key space, so a branch on them
   would mispredict about every other step. *)
let[@hot] rec search (keys : int array) (k : int) base n =
  if n <= 1 then base
  else
    let half = n lsr 1 in
    let up = Bool.to_int (Array.unsafe_get keys (base + half) <= k) in
    search keys k (base + (up * half)) (n - half)

let[@hot] handle (keys : Ids.key array) k =
  let n = Array.length keys in
  if n = 0 then -1
  else
    let h = search keys k 0 n in
    if Array.unsafe_get keys h = k then h else -1
