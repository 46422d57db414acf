(* Regenerate a golden trajectory fixture: a figure's full text followed by
   the run's simulator totals, byte-identical to what the pinned tests in
   test/test_shapes.ml recompute.  Usage:

     dune exec bin/golden.exe -- fig3       > test/golden/fig3_smoke.txt
     dune exec bin/golden.exe -- saturation > test/golden/saturation_smoke.txt
     dune exec bin/golden.exe -- recovery   > test/golden/recovery_smoke.txt

   Regenerate (and eyeball the diff) whenever a protocol or engine change
   intentionally moves the DES trajectory. *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  match Sss_experiments.Experiments.golden name with
  | Some text -> print_string text
  | None ->
      prerr_endline "usage: golden (fig3|saturation|recovery)";
      exit 2
