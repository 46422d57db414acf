(* Regenerate a golden trajectory fixture: a figure's full text followed by
   the run's simulator totals, byte-identical to what the pinned tests in
   test/test_shapes.ml recompute.  NAME is any figure name (fig3, ...,
   saturation) or recovery.  Usage:

     dune exec bin/golden.exe -- NAME > test/golden/NAME_smoke.txt

   Regenerate (and eyeball the diff) whenever a protocol or engine change
   intentionally moves the DES trajectory. *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  match Sss_experiments.Experiments.golden name with
  | Some text -> print_string text
  | None ->
      prerr_endline "usage: golden (FIGURE|recovery)";
      exit 2
