open Sss_data

type event =
  | Begin of { txn : Ids.txn; ro : bool; node : Ids.node }
  | Read of { txn : Ids.txn; key : Ids.key; writer : Ids.txn }
  | Install of { txn : Ids.txn; key : Ids.key }
  | Commit of { txn : Ids.txn; ws : Ids.key list }
  | Abort of { txn : Ids.txn }

type stamped = { at : float; seq : int; event : event }

let bits = 10

(* Three ints per event in [words], its time in [times], commit write sets
   in [ws]; event [i]'s [seq] is [i]. *)
type log = { words : int array Col.t; times : Float.Array.t Col.t; ws : int array Col.t }

(* [None] is a disabled recorder: it keeps nothing and allocates nothing. *)
type t = log option

let create ?(enabled = true) () =
  if enabled then Some { words = Col.create ~bits; times = Col.create ~bits; ws = Col.create ~bits }
  else None

let enabled = Option.is_some

let length = function Some l -> Col.length l.times | None -> 0

(* Word 0 holds the tag in its low three bits (begin 0, read 1, install 2,
   commit 3, abort 4) and the tag's small fields above. *)
let put l w0 txn w2 =
  Col.push l.words w0;
  Col.push l.words (Ids.pack txn);
  Col.push l.words w2

let record t ~at event =
  match t with
  | None -> ()
  | Some l -> (
      let i = Col.slot l.times Float.Array.create in
      Float.Array.set (Col.block l.times i) (Col.pos l.times i) at;
      match event with
      | Begin { txn; ro; node } -> put l ((node lsl 4) lor (Bool.to_int ro lsl 3)) txn 0
      | Read { txn; key; writer } -> put l ((key lsl 3) lor 1) txn (Ids.pack writer)
      | Install { txn; key } -> put l ((key lsl 3) lor 2) txn 0
      | Commit { txn; ws } ->
          put l ((List.length ws lsl 3) lor 3) txn (Col.length l.ws);
          List.iter (Col.push l.ws) ws
      | Abort { txn } -> put l 4 txn 0)

let decode l i =
  let w0 = Col.get l.words (3 * i) and txn = Ids.unpack (Col.get l.words ((3 * i) + 1)) in
  let w2 = Col.get l.words ((3 * i) + 2) in
  match w0 land 7 with
  | 0 -> Begin { txn; ro = w0 land 8 <> 0; node = w0 asr 4 }
  | 1 -> Read { txn; key = w0 asr 3; writer = Ids.unpack w2 }
  | 2 -> Install { txn; key = w0 asr 3 }
  | 3 -> Commit { txn; ws = List.init (w0 asr 3) (fun k -> Col.get l.ws (w2 + k)) }
  | _ -> Abort { txn }

let fold t ~init f =
  let acc = ref init in
  Option.iter
    (fun l ->
      for i = 0 to Col.length l.times - 1 do
        let at = Float.Array.get (Col.block l.times i) (Col.pos l.times i) in
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
