(* Regenerate a golden trajectory fixture: a figure's full text followed by
   the run's simulator totals, byte-identical to what the pinned tests in
   test/test_shapes.ml recompute.  Usage:

     dune exec bin/golden.exe -- fig3       > test/golden/fig3_smoke.txt
     dune exec bin/golden.exe -- saturation > test/golden/saturation_smoke.txt
     dune exec bin/golden.exe -- recovery   > test/golden/recovery_smoke.txt

   Regenerate (and eyeball the diff) whenever a protocol or engine change
   intentionally moves the DES trajectory. *)

open Sss_experiments.Experiments

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  if String.equal name "recovery" then begin
    print_string (recovery_smoke ());
    exit 0
  end;
  let fig =
    match name with
    | "fig3" -> fig3
    | "saturation" -> fun c scale -> saturation c scale
    | _ ->
        prerr_endline "usage: golden (fig3|saturation|recovery)";
        exit 2
  in
  let buf = Buffer.create 4096 in
  let c = ctx ~jobs:1 ~out:(Buffer.add_string buf) () in
  let m = fig c Smoke in
  Buffer.add_string buf
    (Printf.sprintf "des_events %d\nvirtual_seconds %.6f\ncommitted_txns %d\nruns %d\n"
       m.des_events m.virtual_seconds m.committed_txns m.runs);
  print_string (Buffer.contents buf)
