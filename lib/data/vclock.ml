(* Clocks are plain int arrays.  Every function below is a monomorphic
   loop: the polymorphic structural operations ([Stdlib.compare], [=]) cost
   an order of magnitude more on the read/commit hot paths, and the
   per-operation copies of the original immutable-only interface dominated
   the simulator's allocation profile. *)

type t = int array

let zero n = Array.make n 0

let of_array a = Array.copy a

let unsafe_of_array a = a

let to_array t = Array.copy t

let copy t = Array.copy t

let size t = Array.length t

let get t i = t.(i)

let set t i v =
  let c = Array.copy t in
  c.(i) <- v;
  c

let[@hot] set_into t i v = t.(i) <- v

let bump t i = set t i (t.(i) + 1)

(* Entry-wise maximum without an allocation when one side already
   dominates: the result is then that side itself.  Sound because clocks
   are immutable once published (the *_into operations below are reserved
   for clocks the caller exclusively owns and has not shared). *)
let max a b =
  assert (Array.length a = Array.length b);
  let n = Array.length a in
  (* a_dom: every entry of [a] >= the matching entry of [b]; dually b_dom *)
  let a_dom = ref true and b_dom = ref true in
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a i and bi = Array.unsafe_get b i in
    if ai < bi then a_dom := false;
    if bi < ai then b_dom := false
  done;
  if !a_dom then a
  else if !b_dom then b
  else begin
    let c = Array.make n 0 in
    for i = 0 to n - 1 do
      let ai = Array.unsafe_get a i and bi = Array.unsafe_get b i in
      Array.unsafe_set c i (if ai < bi then bi else ai)
    done;
    c
  end

(* The [t] annotations below are load-bearing: without them the .ml body
   infers ['a array] (the .mli only constrains the boundary, not the
   generated code) and every comparison compiles to the generic
   [caml_compare] path. *)
let[@hot] max_into (dst : t) (src : t) =
  assert (Array.length dst = Array.length src);
  for i = 0 to Array.length dst - 1 do
    let s = Array.unsafe_get src i in
    if s > Array.unsafe_get dst i then Array.unsafe_set dst i s
  done

let[@hot] blit ~src ~dst = Array.blit src 0 dst 0 (Array.length src)

(* Toplevel recursion: a local [let rec] would capture both clocks in a
   closure allocated per call, and the store's GC walk calls [leq] once
   per version. *)
let[@hot] rec leq_from (a : t) (b : t) i =
  i >= Array.length a || (Array.unsafe_get a i <= Array.unsafe_get b i && leq_from a b (i + 1))

let[@hot] leq (a : t) (b : t) =
  assert (Array.length a = Array.length b);
  leq_from a b 0

let rec equal_from (a : t) (b : t) i =
  i >= Array.length a || (Array.unsafe_get a i = Array.unsafe_get b i && equal_from a b (i + 1))

let equal (a : t) (b : t) = Array.length a = Array.length b && equal_from a b 0

let lt a b = leq a b && not (equal a b)

(* Same total order as the polymorphic compare on int arrays: shorter
   first, then lexicographic. *)
let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec loop i =
      if i >= la then 0
      else
        let c = Int.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let concurrent a b = (not (leq a b)) && not (leq b a)

let to_string t =
  "["
  ^ String.concat "," (Array.to_list (Array.map string_of_int t))
  ^ "]"
