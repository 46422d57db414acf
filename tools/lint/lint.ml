(** sss_lint shared core: the rule vocabulary of the typed whole-program
    engine in {!Typed_lint} — rule names R1-R9, families, directory
    scoping, suppression attributes, the identifier tables the rules match
    resolved names against.

    The intraprocedural rules, each scoped by directory ({!rule_applies}):

    - R1 [determinism]: no wall-clock or ambient entropy — [Unix.*],
      [Sys.time], and the stdlib [Random.*] are banned (the simulator's
      virtual time and the splitmix [Prng] are the only admissible
      sources).  Armed under [lib/] and in the harness trees ([bin/],
      [bench/], [tools/]); [@wallclock_ok] suppresses only in the latter.
    - R2 [no polymorphic comparison]: in the hot libraries ([lib/data],
      [lib/sim], [lib/net], [lib/core]) and the harness trees, the
      polymorphic [compare]/[min]/[max]/[Hashtbl.hash] and the comparison
      operators must be instantiated at a scalar type.  [@poly_ok]
      suppresses.
    - R3 [Vclock ownership]: uses of
      [Vclock.set_into]/[max_into]/[blit]/[unsafe_of_array] must carry
      [@owned].
    - R4 [iteration order]: [Hashtbl.fold]/[Hashtbl.iter] in the
      history-affecting libraries ([lib/core], [lib/consistency],
      [lib/data], [lib/twopc], [lib/walter], [lib/rococo]) must carry
      [@order_ok], asserting the result is insensitive to bucket order.
    - R5 [no ad-hoc printing]: the stdout/stderr printers
      ([print_string], [Printf.printf], [Format.eprintf], ...) are banned
      under [lib/] — observation goes through the [Obs] registry
      (docs/OBSERVABILITY.md), which is on virtual time, deterministic,
      and absent when [Config.observe] is off.  [lib/experiments] (the
      figure printers) is exempt by scope; [@print_ok] suppresses.
    - R6 [no toplevel mutable state]: module-level bindings under [lib/]
      must not construct mutable state — [ref], [Hashtbl.create] (and the
      other stdlib mutable containers), [Array.make]/[init], [Bytes], a
      mutable record, or a [lazy] thunk.  Such a binding is shared by every
      domain once runs fan out through [Sss_par.Pool], so it is both a data
      race and a determinism leak between runs.  [Atomic.t] is exempt (the
      sanctioned cross-domain primitive); [@@domain_safe] on the binding
      suppresses.

    R7-R9 work on the whole-program call graph; {!Typed_lint} documents
    them. *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9

let all_rules = [ R1; R2; R3; R4; R5; R6; R7; R8; R9 ]

let rule_name = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"

let rule_index = function
  | R1 -> 0
  | R2 -> 1
  | R3 -> 2
  | R4 -> 3
  | R5 -> 4
  | R6 -> 5
  | R7 -> 6
  | R8 -> 7
  | R9 -> 8

let rule_of_string s =
  match String.uppercase_ascii (String.trim s) with
  | "R1" | "DETERMINISM" -> Some R1
  | "R2" | "POLY" | "POLYCOMPARE" -> Some R2
  | "R3" | "OWNED" | "VCLOCK" -> Some R3
  | "R4" | "ORDER" | "ITERATION" -> Some R4
  | "R5" | "PRINT" | "TRACE" -> Some R5
  | "R6" | "DOMAIN" | "TOPLEVEL" -> Some R6
  | "R7" | "TAINT" -> Some R7
  | "R8" | "HOT" | "ALLOC" -> Some R8
  | "R9" | "ESCAPE" -> Some R9
  | _ -> None

let rule_doc = function
  | R1 -> "determinism: no Unix/Sys.time/Random under lib/ (annotated uses ok in harnesses)"
  | R2 -> "no bare polymorphic compare in hot libraries and harnesses"
  | R3 -> "Vclock in-place ops require [@owned]"
  | R4 -> "Hashtbl iteration must be [@order_ok] in history-affecting code"
  | R5 -> "no stdout/stderr printing in lib/; observe through the Obs registry"
  | R6 -> "no toplevel mutable state in lib/ (domain-shared across parallel runs)"
  | R7 -> "determinism taint: no nondeterminism source reachable from protocol/engine code"
  | R8 -> "[@hot] functions must not allocate closures, boxed floats, or tuples"
  | R9 -> "no toplevel closures over mutable state (R6 through the call graph)"

(* Rule families group the rules by the invariant they protect; reported in
   the schema-2 JSON output so downstream tooling can bucket findings. *)
let rule_family = function
  | R1 | R7 -> "determinism"
  | R2 -> "poly-compare"
  | R3 -> "ownership"
  | R4 -> "iteration-order"
  | R5 -> "printing"
  | R6 | R9 -> "domain-safety"
  | R8 -> "allocation"

type finding = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  context : string;  (** innermost enclosing let-binding, or "<toplevel>" *)
  lexeme : string;  (** the flagged identifier or operator *)
  message : string;
  chain : string list;
      (** call-graph path for interprocedural findings (R7/R9): entry point
          first, flagged definition last; [[]] for intraprocedural rules *)
}

exception Parse_error of string

(* ---- path scoping ---------------------------------------------------- *)

(* The first path component naming a linted top-level tree decides the
   scope: library code ([lib/<sub>]) carries every determinism obligation,
   while the harness trees ([bin/], [bench/], [tools/]) are self-linted for
   the rules that still make sense off the simulator ([@wallclock_ok] and
   [@print_ok] mark their deliberate wall-clock/printing uses). *)
type scope_dir = Lib of string | Bin | Bench | Tools | Unscoped

let scope_dir path =
  let rec go = function
    | "lib" :: rest ->
        Lib (match rest with [] | [ _ ] -> "" | sub :: _ -> sub)
    | "bin" :: _ -> Bin
    | "bench" :: _ -> Bench
    | "tools" :: _ -> Tools
    | _ :: rest -> go rest
    | [] -> Unscoped
  in
  go (String.split_on_char '/' path)

let hot_libs = [ "data"; "sim"; "net"; "core" ]

let history_libs = [ "core"; "consistency"; "data"; "twopc"; "walter"; "rococo" ]

(* R7 taint chains must end in protocol/engine code: a nondeterminism source
   only matters if the deterministic core can actually reach it. *)
let entry_libs =
  [ "core"; "sim"; "net"; "data"; "consistency"; "twopc"; "walter"; "rococo" ]

let rule_applies rule path =
  match scope_dir path with
  | Lib sub -> (
      match rule with
      | R1 | R3 | R6 | R9 -> true
      | R2 -> List.mem sub hot_libs
      | R4 -> List.mem sub history_libs
      (* the experiment harness IS the figure printer; everything else in
         lib/ must observe through the metrics registry *)
      | R5 -> not (String.equal sub "experiments")
      (* sss_par owns the sanctioned Domain fan-out *)
      | R7 -> not (String.equal sub "par")
      | R8 -> true)
  | Bin | Bench | Tools -> (
      match rule with
      | R1 | R2 | R3 | R8 -> true
      | R4 | R5 | R6 | R7 | R9 -> false)
  | Unscoped -> false

(* ---- identifier tables ----------------------------------------------- *)

let poly_named = [ "compare"; "min"; "max" ]

let poly_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

let vclock_owned_ops = [ "set_into"; "max_into"; "blit"; "unsafe_of_array" ]

(* R5: direct stdout/stderr printers.  [Printf.sprintf]/[Format.asprintf]
   and the [pp_print_*] combinators build strings or print to an explicit
   formatter and stay legal. *)
let print_funs =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes";
    "prerr_string"; "prerr_endline"; "prerr_newline"; "prerr_char";
    "prerr_int"; "prerr_float"; "prerr_bytes";
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "Format.print_string"; "Format.print_newline";
  ]

(* Strip a [Stdlib.] qualification so [Stdlib.compare] and [compare] are the
   same lexeme. *)
let strip_stdlib name =
  match String.index_opt name '.' with
  | Some 6 when String.equal (String.sub name 0 6) "Stdlib" ->
      String.sub name 7 (String.length name - 7)
  | _ -> name

(* R3: does a (resolved) name denote an in-place [Vclock] operation? *)
let is_vclock_owned_op name =
  match List.rev (String.split_on_char '.' name) with
  | op :: "Vclock" :: _ -> List.mem op vclock_owned_ops
  | _ -> false

(* R6: applications of these construct mutable state.  [Atomic.make] is
   deliberately absent: atomics are the sanctioned cross-domain primitive. *)
let mutable_creators =
  [
    "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create";
    "Array.make"; "Array.create_float"; "Array.init"; "Bytes.create";
    "Bytes.make"; "Weak.create";
  ]

let attr_rule (attr : Parsetree.attribute) =
  match attr.attr_name.txt with
  | "poly_ok" -> Some R2
  | "owned" -> Some R3
  | "order_ok" -> Some R4
  | "print_ok" -> Some R5
  | "domain_safe" -> Some R6
  (* harness-side wall-clock measurement; honoured outside lib/ only
     (the engine gates it on scope) *)
  | "wallclock_ok" -> Some R1
  | "alloc_ok" -> Some R8  (* deliberate cold-branch allocation in [@hot] code *)
  | _ -> None

(* ---- parsing ---------------------------------------------------------- *)

let parse_file path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> raise (Parse_error msg)
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      try Parse.implementation lexbuf
      with exn ->
        let msg =
          match Location.error_of_exn exn with
          | Some (`Ok report) ->
              Format.asprintf "%a" Location.print_report report
          | _ -> Printexc.to_string exn
        in
        raise (Parse_error (Printf.sprintf "%s: %s" path msg)))
