(* sss_lint CLI: run the typed whole-program engine
   (tools/lint/typed_lint.ml) over the project.

   Input paths are source directories; the CLI locates the corresponding
   dune [.cmt] artifacts (under the path itself when invoked from inside
   [_build/default], or under [_build/default/PATH] when invoked from the
   repo root).  Requires a prior [dune build @check] (or any full build).

   Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/parse errors. *)

let print_human findings =
  List.iter
    (fun (f : Lint.finding) ->
      Printf.printf "%s:%d:%d: [%s] %s\n" f.file f.line f.col
        (Lint.rule_name f.rule) f.message;
      (match f.chain with
      | [] -> ()
      | chain -> Printf.printf "  chain: %s\n" (String.concat " -> " chain)))
    findings

(* .cmt discovery: recursively scan both PATH and
   _build/default/PATH, so the CLI works from the repo root and from inside
   a dune rule's working directory. *)
let rec collect_cmts path =
  if not (Sys.file_exists path) then []
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.concat_map (fun entry -> collect_cmts (Filename.concat path entry))
  else if Filename.check_suffix path ".cmt" then [ path ]
  else []

let cmts_for_path p =
  collect_cmts p @ collect_cmts (Filename.concat "_build/default" p)

let run rules paths =
  let rules =
    match rules with
    | [] -> Lint.all_rules
    | names -> (
        match
          List.map (fun n -> (n, Lint.rule_of_string n)) names
          |> List.partition (fun (_, r) -> Option.is_some r)
        with
        | ok, [] -> List.filter_map snd ok
        | _, (bad, _) :: _ ->
            Printf.eprintf "sss_lint: unknown rule %S (use R1..R9)\n" bad;
            exit 2)
  in
  let findings =
    match List.concat_map cmts_for_path paths with
    | [] ->
        Printf.eprintf
          "sss_lint: no .cmt files under %s (run `dune build @check` first)\n"
          (String.concat ", " paths);
        exit 2
    | cmts -> (
        try Typed_lint.check_cmts ~rules cmts
        with Lint.Parse_error msg ->
          Printf.eprintf "sss_lint: %s\n" msg;
          exit 2)
  in
  print_human findings;
  Printf.printf "sss_lint: engine typed, rules %s: %d finding(s)\n"
    (String.concat "," (List.map Lint.rule_name rules))
    (List.length findings);
  match findings with [] -> exit 0 | _ -> exit 1

open Cmdliner

let rules_arg =
  let doc =
    "Comma-separated rules to run (R1 determinism, R2 polymorphic compare, \
     R3 Vclock ownership, R4 iteration order, R5 no ad-hoc printing, R6 no \
     toplevel mutable state, R7 determinism taint, R8 hot-path allocation, \
     R9 escaping mutable state). Default: all."
  in
  Arg.(value & opt (list string) [] & info [ "rules" ] ~docv:"RULES" ~doc)

let paths_arg =
  let doc =
    "Source directories to lint (scope comes from the source path; the \
     linter reads the matching _build .cmt artifacts)."
  in
  Arg.(value & pos_all string [ "lib" ] & info [] ~docv:"PATH" ~doc)

let cmd =
  let doc =
    "static checks for the SSS simulator's determinism and hot-path contracts"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Analyzes the project as one typed program (the Typedtree in dune's \
         .cmt files) and enforces the project rules of DESIGN.md §8 / \
         docs/LINT.md:";
      `P (Printf.sprintf "R1: %s" (Lint.rule_doc Lint.R1));
      `P (Printf.sprintf "R2: %s" (Lint.rule_doc Lint.R2));
      `P (Printf.sprintf "R3: %s" (Lint.rule_doc Lint.R3));
      `P (Printf.sprintf "R4: %s" (Lint.rule_doc Lint.R4));
      `P (Printf.sprintf "R5: %s" (Lint.rule_doc Lint.R5));
      `P (Printf.sprintf "R6: %s" (Lint.rule_doc Lint.R6));
      `P (Printf.sprintf "R7: %s" (Lint.rule_doc Lint.R7));
      `P (Printf.sprintf "R8: %s" (Lint.rule_doc Lint.R8));
      `P (Printf.sprintf "R9: %s" (Lint.rule_doc Lint.R9));
      `P
        "Suppressions: [@poly_ok] (R2), [@owned] (R3), [@order_ok] (R4), \
         [@print_ok] (R5), [@@domain_safe] (R6/R9), [@wallclock_ok] (R1, \
         harness scopes only), [@alloc_ok] (R8), [@deterministic] (R7 \
         barrier).";
    ]
  in
  Cmd.v
    (Cmd.info "sss_lint" ~version:"2.0" ~doc ~man)
    Term.(const run $ rules_arg $ paths_arg)

let () = exit (Cmd.eval cmd)
