(* R5 fixture, clean twin: emission through the observability sink, string
   building (always legal), and a deliberate CLI print under [@print_ok]. *)

(* stub of the observability sink *)
module Sss_obs = struct
  module Obs = struct
    type t = unit
    type event = Txn_commit of { txn : string; node : int; ro : bool }

    let emit (_ : t) ~at:(_ : float) (_ : event) = ()
  end
end

let announce_commit obs ~at txn =
  Sss_obs.Obs.emit obs ~at (Sss_obs.Obs.Txn_commit { txn; node = 0; ro = false })

let describe_queue depth = Printf.sprintf "queue depth: %d" depth

let pp_stall fmt (src, dst) = Format.fprintf fmt "stall %d -> %d" src dst

(* binding-level suppression: a deliberate operator-facing dump *)
let[@print_ok] dump_trace lines = List.iter print_endline lines

(* expression-level suppression also works *)
let last_resort msg = (prerr_endline msg [@print_ok])
