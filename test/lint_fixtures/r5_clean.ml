(* R5 fixture, clean twin: observation through the metrics registry, string
   building (always legal), and a deliberate CLI print under [@print_ok]. *)

(* stub of the metrics registry *)
module Sss_obs = struct
  module Obs = struct
    type t = unit

    let incr (_ : t) (_ : string) = ()
  end
end

let count_commit obs = Sss_obs.Obs.incr obs "txn.commit.update"

let describe_queue depth = Printf.sprintf "queue depth: %d" depth

let pp_stall fmt (src, dst) = Format.fprintf fmt "stall %d -> %d" src dst

(* binding-level suppression: a deliberate operator-facing dump *)
let[@print_ok] dump_trace lines = List.iter print_endline lines

(* expression-level suppression also works *)
let last_resort msg = (prerr_endline msg [@print_ok])
