(* Wall clock, in-memory spans, and the per-event engine probe.

   Everything here is recorded from the benchmark's own side of the public
   APIs: spans around the calls the benchmark makes into each layer, and a
   passive [Sim.set_probe] tap.  Spans stay in memory until [write]. *)

let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---------- spans ---------- *)

type kind = Txn | Begin | Read | Write | Commit

let kind_name = function
  | Txn -> "txn"
  | Begin -> "begin_txn"
  | Read -> "read"
  | Write -> "write"
  | Commit -> "commit"

let kind_code = function Txn -> 0 | Begin -> 1 | Read -> 2 | Write -> 3 | Commit -> 4

let kinds = [| Txn; Begin; Read; Write; Commit |]

(* Client-API spans in virtual time, struct-of-arrays so a traced cell of
   a few hundred thousand calls stays a few flat arrays. *)
type t = {
  mutable n : int;
  mutable kind : int array;
  mutable cell : int array;
  mutable req : int array;  (* transaction id, node lsl 32 lor local *)
  mutable parent : int array;  (* index of the transaction span; -1 for itself *)
  mutable t0 : float array;
  mutable t1 : float array;
  mutable walls : (string * string * float * float) list;
      (* wall-clock spans, newest first: name, detail, start, end *)
  origin : float;
}

let create () =
  let cap = 4096 in
  {
    n = 0;
    kind = Array.make cap 0;
    cell = Array.make cap 0;
    req = Array.make cap 0;
    parent = Array.make cap 0;
    t0 = Array.make cap 0.0;
    t1 = Array.make cap 0.0;
    walls = [];
    origin = wall ();
  }

let grow t =
  let cap = 2 * Array.length t.kind in
  let ints a = Array.append a (Array.make (cap - Array.length a) 0) in
  let floats a = Array.append a (Array.make (cap - Array.length a) 0.0) in
  t.kind <- ints t.kind;
  t.cell <- ints t.cell;
  t.req <- ints t.req;
  t.parent <- ints t.parent;
  t.t0 <- floats t.t0;
  t.t1 <- floats t.t1

(* Add a span and return its index; [parent < 0] makes it its own root. *)
let add t ~kind ~cell ~(txn : Sss_data.Ids.txn) ~parent ~t0 ~t1 =
  if t.n = Array.length t.kind then grow t;
  let i = t.n in
  t.kind.(i) <- kind_code kind;
  t.cell.(i) <- cell;
  t.req.(i) <- (txn.node lsl 32) lor txn.local;
  t.parent.(i) <- (if parent < 0 then i else parent);
  t.t0.(i) <- t0;
  t.t1.(i) <- t1;
  t.n <- i + 1;
  i

let close t i ~t1 = t.t1.(i) <- t1

let wall_interval t ~name ~detail ~start ~stop =
  t.walls <- (name, detail, start -. t.origin, stop -. t.origin) :: t.walls

let wall_span t ~name ~detail f =
  let start = wall () in
  let v = f () in
  wall_interval t ~name ~detail ~start ~stop:(wall ());
  v

(* Virtual durations (seconds) of every span of [kind] in the given cells. *)
let durations t ~kind ~cells =
  let code = kind_code kind in
  let st = Sss_workload.Stats.create () in
  for i = 0 to t.n - 1 do
    if t.kind.(i) = code && List.mem t.cell.(i) cells then
      Sss_workload.Stats.add st (t.t1.(i) -. t.t0.(i))
  done;
  st

(* Tab-separated, one span per line: wall spans first (seconds since the
   process's first span), then client-API spans (virtual seconds). *)
let write t ~cell_labels file =
  let oc = open_out file in
  output_string oc "clock\tname\tcell\treq\tparent\tstart\tend\n";
  List.iter
    (fun (name, detail, s, e) -> Printf.fprintf oc "wall\t%s\t%s\t-\t-\t%.9f\t%.9f\n" name detail s e)
    (List.rev t.walls);
  for i = 0 to t.n - 1 do
    let r = t.req.(i) in
    Printf.fprintf oc "virtual\t%s\t%s\t%d.%d\t%d\t%.9f\t%.9f\n"
      (kind_name kinds.(t.kind.(i)))
      cell_labels.(t.cell.(i))
      (r lsr 32)
      (r land 0xffffffff)
      t.parent.(i) t.t0.(i) t.t1.(i)
  done;
  close_out oc

(* ---------- engine probe ---------- *)

(* Wall time per executed DES event, in a log2 histogram with eight
   buckets per octave of nanoseconds, plus per-event cost in each half of
   the measured window. *)
type probe = {
  hist : int array;
  mutable last : float;
  mutable early_s : float;
  mutable early_n : int;
  mutable late_s : float;
  mutable late_n : int;
  w0 : float;
  mid : float;
  w1 : float;
}

let buckets = 256

let probe ~w0 ~w1 =
  {
    hist = Array.make buckets 0;
    last = wall ();
    early_s = 0.0;
    early_n = 0;
    late_s = 0.0;
    late_n = 0;
    w0;
    mid = (w0 +. w1) /. 2.0;
    w1;
  }

let tick p ~vnow =
  let now = wall () in
  let dt = now -. p.last in
  p.last <- now;
  let ns = Float.max 1.0 (dt *. 1e9) in
  let b = Stdlib.min (buckets - 1) (int_of_float (8.0 *. Float.log2 ns)) in
  p.hist.(b) <- p.hist.(b) + 1;
  if vnow >= p.w0 && vnow < p.mid then begin
    p.early_s <- p.early_s +. dt;
    p.early_n <- p.early_n + 1
  end
  else if vnow >= p.mid && vnow < p.w1 then begin
    p.late_s <- p.late_s +. dt;
    p.late_n <- p.late_n + 1
  end

(* Merge probes and read a percentile of event wall time, in µs (the upper
   edge of the bucket holding the rank). *)
let event_us probes q =
  let h = Array.make buckets 0 in
  List.iter (fun p -> Array.iteri (fun i c -> h.(i) <- h.(i) + c) p.hist) probes;
  let total = Array.fold_left ( + ) 0 h in
  if total = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int total)) in
    let rec find i acc =
      let acc = acc + h.(i) in
      if acc >= rank || i = buckets - 1 then i else find (i + 1) acc
    in
    let b = find 0 0 in
    Float.pow 2.0 (float_of_int (b + 1) /. 8.0) /. 1e3
  end

(* Wall cost per event in the late half of the window over the early half,
   pooled over probes. *)
let late_early probes =
  let sum f = List.fold_left (fun a p -> a +. f p) 0.0 probes in
  let early_n = sum (fun p -> float_of_int p.early_n) and late_n = sum (fun p -> float_of_int p.late_n) in
  if early_n = 0.0 || late_n = 0.0 then 0.0
  else sum (fun p -> p.late_s) /. late_n /. (sum (fun p -> p.early_s) /. early_n)
