(* R5 fixture: ad-hoc printing from library code.  Observation must go
   through the Obs registry (docs/OBSERVABILITY.md).  Expected findings, in order:
   print_endline, Printf.printf, Format.eprintf, prerr_string,
   print_string (bare mention passed as a value). *)

let announce_commit txn = print_endline ("commit " ^ txn)

let debug_queue depth = Printf.printf "queue depth: %d\n" depth

let warn_stall src dst = Format.eprintf "stall %d -> %d@." src dst

let complain msg = prerr_string msg

let emit_all lines = List.iter print_string lines
