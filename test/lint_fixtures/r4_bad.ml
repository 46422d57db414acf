(* R4 fixture: Hashtbl iteration whose order can leak into results.
   Expected findings, in order: fold, iter. *)

(* stub of a statistics sink *)
module Stats = struct
  let note (_ : int) (_ : int) = ()
end

let keys table = Hashtbl.fold (fun k _ acc -> k :: acc) table []

let report table =
  Hashtbl.iter (fun k v -> Stats.note k v) table
