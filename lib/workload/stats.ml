type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { samples = Array.make 1024 0.0; len = 0; sorted = true }

let add t x =
  if t.len = Array.length t.samples then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len

let mean t =
  if t.len = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.len - 1 do
      sum := !sum +. t.samples.(i)
    done;
    !sum /. float_of_int t.len
  end

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.len in
    Array.sort Float.compare live;
    Array.blit live 0 t.samples 0 t.len;
    t.sorted <- true
  end

let percentile t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: fraction outside [0,1]";
  if t.len = 0 then 0.0
  else begin
    ensure_sorted t;
    let rank = int_of_float (ceil (p *. float_of_int t.len)) - 1 in
    t.samples.(Stdlib.max 0 (Stdlib.min (t.len - 1) rank))
  end

let min t = percentile t 0.0

let clear t =
  t.len <- 0;
  t.sorted <- true
