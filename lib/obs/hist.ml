(* The one shape every histogram has: bucket 1's lower edge, the geometric
   growth factor and the bucket count. *)
let lo = 1e-7

let ratio = 2.0

let buckets = 48

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

let create () =
  { counts = Array.make buckets 0; total = 0; sum = 0.0; vmin = infinity; vmax = neg_infinity }

(* Iterative edge walk rather than a log/exp round trip: 48 multiplies at
   most, and the boundary semantics are exact (a value equal to an edge
   lands in the bucket above it, with no floating-point log fuzz). *)
let bucket_of v =
  if v < lo then 0
  else begin
    let i = ref 1 in
    let edge = ref (lo *. ratio) in
    while !i < buckets - 1 && v >= !edge do
      incr i;
      edge := !edge *. ratio
    done;
    !i
  end

let bucket_bounds i =
  if i < 0 || i >= buckets then invalid_arg "Hist.bucket_bounds: index out of range";
  if i = 0 then (0.0, lo)
  else begin
    let lower = ref lo in
    for _ = 2 to i do
      lower := !lower *. ratio
    done;
    let upper = if i = buckets - 1 then infinity else !lower *. ratio in
    (!lower, upper)
  end

let observe t v =
  let v = if v < 0.0 then 0.0 else v in
  let i = bucket_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum +. v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let count t = t.total

let sum t = t.sum

let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total

let min_value t = if t.total = 0 then 0.0 else t.vmin

let max_value t = if t.total = 0 then 0.0 else t.vmax

let counts t = Array.copy t.counts

(* Upper edge of the bucket holding the rank, clamped to the observed
   maximum so an estimate never exceeds any real value. *)
let percentile t p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Hist.percentile: p outside (0, 1]";
  if t.total = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (ceil (p *. float_of_int t.total)) in
      if r < 1 then 1 else r
    in
    let cum = ref 0 in
    let found = ref (buckets - 1) in
    (try
       for i = 0 to buckets - 1 do
         cum := !cum + t.counts.(i);
         if !cum >= rank then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    let _, upper = bucket_bounds !found in
    if upper > t.vmax then t.vmax else upper
  end

let merge a b =
  let m = create () in
  Array.iteri (fun i c -> m.counts.(i) <- c + b.counts.(i)) a.counts;
  m.total <- a.total + b.total;
  m.sum <- a.sum +. b.sum;
  m.vmin <- Float.min a.vmin b.vmin;
  m.vmax <- Float.max a.vmax b.vmax;
  m

let to_json t =
  Printf.sprintf
    {|{"count":%d,"mean":%.9g,"min":%.9g,"max":%.9g,"p50":%.9g,"p95":%.9g,"p99":%.9g}|}
    t.total (mean t) (min_value t) (max_value t)
    (if t.total = 0 then 0.0 else percentile t 0.50)
    (if t.total = 0 then 0.0 else percentile t 0.95)
    (if t.total = 0 then 0.0 else percentile t 0.99)
