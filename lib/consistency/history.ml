open Sss_data

type event =
  | Begin of { txn : Ids.txn; ro : bool; node : Ids.node }
  | Read of { txn : Ids.txn; key : Ids.key; writer : Ids.txn }
  | Install of { txn : Ids.txn; key : Ids.key }
  | Commit of { txn : Ids.txn; ws : Ids.key list }
  | Abort of { txn : Ids.txn }

type stamped = { at : float; seq : int; event : event }

(* A column in fixed blocks of [2^bits] values, each allocated on first
   use, so spare capacity is at most one block.  The spine doubles; it
   holds one pointer per block. *)
let bits = 10

let mask = (1 lsl bits) - 1

type 'b col = { mutable blocks : 'b array; mutable n : int }

(* Claim the next slot of [c], allocating its block with [make]. *)
let slot c make =
  let i = c.n in
  let b = i lsr bits in
  if i land mask = 0 then begin
    if b = Array.length c.blocks then
      c.blocks <- Array.append c.blocks (Array.make (Stdlib.max 4 b) (make 0));
    c.blocks.(b) <- make (1 lsl bits)
  end;
  c.n <- i + 1;
  i

let push c v =
  let i = slot c (fun n -> Array.make n 0) in
  c.blocks.(i lsr bits).(i land mask) <- v

let get c i = c.blocks.(i lsr bits).(i land mask)

(* Three ints per event in [words], its time in [times], commit write sets
   in [ws]; event [i]'s [seq] is [i]. *)
type log = { words : int array col; times : Float.Array.t col; ws : int array col }

(* [None] is a disabled recorder: it keeps nothing and allocates nothing. *)
type t = log option

let col () = { blocks = [||]; n = 0 }

let create ?(enabled = true) () =
  if enabled then Some { words = col (); times = col (); ws = col () } else None

let enabled = Option.is_some

let length = function Some l -> l.times.n | None -> 0

(* Word 0 holds the tag in its low three bits (begin 0, read 1, install 2,
   commit 3, abort 4) and the tag's small fields above. *)
let put l w0 txn w2 =
  push l.words w0;
  push l.words (Ids.pack txn);
  push l.words w2

let record t ~at event =
  match t with
  | None -> ()
  | Some l -> (
      let i = slot l.times Float.Array.create in
      Float.Array.set l.times.blocks.(i lsr bits) (i land mask) at;
      match event with
      | Begin { txn; ro; node } -> put l ((node lsl 4) lor (Bool.to_int ro lsl 3)) txn 0
      | Read { txn; key; writer } -> put l ((key lsl 3) lor 1) txn (Ids.pack writer)
      | Install { txn; key } -> put l ((key lsl 3) lor 2) txn 0
      | Commit { txn; ws } ->
          put l ((List.length ws lsl 3) lor 3) txn l.ws.n;
          List.iter (push l.ws) ws
      | Abort { txn } -> put l 4 txn 0)

let decode l i =
  let w0 = get l.words (3 * i) and txn = Ids.unpack (get l.words ((3 * i) + 1)) in
  let w2 = get l.words ((3 * i) + 2) in
  match w0 land 7 with
  | 0 -> Begin { txn; ro = w0 land 8 <> 0; node = w0 asr 4 }
  | 1 -> Read { txn; key = w0 asr 3; writer = Ids.unpack w2 }
  | 2 -> Install { txn; key = w0 asr 3 }
  | 3 -> Commit { txn; ws = List.init (w0 asr 3) (fun k -> get l.ws (w2 + k)) }
  | _ -> Abort { txn }

let fold t ~init f =
  let acc = ref init in
  Option.iter
    (fun l ->
      for i = 0 to l.times.n - 1 do
        let at = Float.Array.get l.times.blocks.(i lsr bits) (i land mask) in
        acc := f !acc ~seq:i ~at (decode l i)
      done)
    t;
  !acc

let iter t f = fold t ~init:() (fun () ~seq ~at e -> f ~seq ~at e)

let events t = List.rev (fold t ~init:[] (fun acc ~seq ~at event -> { at; seq; event } :: acc))

let pp_event fmt = function
  | Begin { txn; ro; node } ->
      Format.fprintf fmt "begin %a %s @node%d" Ids.pp_txn txn
        (if ro then "ro" else "up")
        node
  | Read { txn; key; writer } ->
      Format.fprintf fmt "read %a k%d <- %a" Ids.pp_txn txn key Ids.pp_txn writer
  | Install { txn; key } -> Format.fprintf fmt "install %a k%d" Ids.pp_txn txn key
  | Commit { txn; ws } ->
      Format.fprintf fmt "commit %a" Ids.pp_txn txn;
      if ws <> [] then
        Format.fprintf fmt " ws{%s}" (String.concat "," (List.map string_of_int ws))
  | Abort { txn } -> Format.fprintf fmt "abort %a" Ids.pp_txn txn
