#!/bin/sh
# Full local gate, in dependency order.  Every check runs once, none
# compares speed with a number stored on another day, and none writes a
# tracked file: outputs go to a temporary directory removed on exit.
#
#   1. dune build           — the tree compiles (warn-error in every scope),
#                             and its odoc pages where odoc is installed
#   2. dune runtest         — unit/property/golden suites (includes @lint via
#                             the runtest alias, but run the linter explicitly
#                             below so a lint failure is unmistakable)
#   3. sss_lint             — typed whole-program engine over all four
#                             source trees; the repo promise is ZERO
#                             findings, so any finding fails the gate
#   4. fig3 smoke           — one -j1 run against HEAD's BENCH_smoke.json:
#                             allocated words exactly, store words and
#                             words/version within 10%; the same run traced
#                             (--observe) keeps its trajectory; on >= 4 cores
#                             -j max is at least 2x faster than -j1
#   5. saturation smoke     — the open-loop engine + online GC do real work:
#                             the bench JSON shows admission rejections and
#                             GC drops
#   6. same-run throughput  — tools/ab.sh HEAD fig3 10: the working tree is
#                             WORSE when its median DES events/sec is more
#                             than 10% below HEAD's built in the same run
#                             and it reads lower in at least 9 of 10 pairs
#   7. perfbench self-test  — the benchmark must still report each of its
#                             known-bad configurations as a failure, with
#                             output test/golden/perfbench_selftest.txt
#                             byte-for-byte
#   8. stress --open        — the 100- and 200-node open-loop rungs keep
#                             version retention flat, end quiescent, and
#                             pass the checker battery over their history
#   9. stress -j max        — the seed/configuration sweep prints
#                             test/golden/stress.txt byte-for-byte
#  10. no presized tables   — no Hashtbl.create in lib/ asks for more than
#                             16 buckets (OCaml's minimum): a table grows
#                             with its traffic, and one that never fills
#                             would pin its empty buckets for a whole run
#  11. line budget          — lib/ + bin/ stay within 13,500 lines and the
#                             linter within 1,700 (ROADMAP, quality aim)
#  12. one run pipeline     — Store.create and Store.drive appear in lib/,
#                             bin/, bench/ and test/ only in
#                             lib/experiments/{store,spec}.ml, and a
#                             Driver.run call or a hand-built Driver.ops
#                             record only in lib/experiments/store.ml
#                             (Store.drive is the one Driver.run caller):
#                             every other harness and test runs a Spec.t
#                             through Spec.run.  perfbench/ is exempt:
#                             cell.ml keeps its own store dispatch and
#                             driver until a benchmark change moves it
#                             onto Spec.run
#  13. clean tree           — `git status --porcelain --ignored` (bar
#                             _build/) reads at the end as at the start
#
# The trajectory checks the suites already make are not repeated here:
# test_shapes pins the fig3 trailer (des_events, virtual_seconds,
# committed_txns, runs), the durability figure and the saturation golden,
# and test_par "figure -j1 = -j4" the fig3 smoke text and every outcome.
#
# Gate 4's baseline is the committed BENCH_smoke.json.  When a change
# moves allocation or the store on purpose, refresh it in its own commit:
#
#   dune exec bench/main.exe -- --scale smoke fig3 --json BENCH_smoke.json
#
# Run from the repository root.
set -eu

state() { git status --porcelain --ignored | grep -v '^!! _build/$' || true; }
start_state=$(state)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
fail() { echo "check FAIL: $*" >&2; exit 1; }
# matches OUT GOLDEN REGEN: fail, showing the diff, unless OUT equals GOLDEN
matches() {
  cmp -s "$1" "$2" && return
  diff "$1" "$2" >&2 || true
  fail "output diverged from $2 (regenerate with '$3' only if intentional)"
}

echo "check: dune build"
dune build
if command -v odoc >/dev/null 2>&1; then dune build @doc; fi

echo "check: dune runtest"
dune runtest

echo "check: sss_lint (typed, zero findings)"
# @check materializes fresh .cmt artifacts for every scope, including the
# executables' (plain `dune build` does not refresh those).
dune build @check
dune exec tools/lint/sss_lint.exe -- lib bin bench tools

echo "check: fig3 smoke"
# num KEY FILE: the first number recorded under "KEY" in FILE
num() { sed -n "s/.*\"$1\": *\([0-9.][0-9.]*\).*/\1/p" "$2" | head -1; }
# at_most KEY LIMIT: fail when this run's KEY exceeds LIMIT (an awk
# expression over the committed baseline)
at_most() {
  v=$(num "$1" "$tmp/smoke.json")
  if [ -z "$v" ] || ! awk "BEGIN { exit !($v <= $2) }"; then
    fail "$1 ${v:-missing} > $2 (commit a refreshed BENCH_smoke.json only if intended)"
  fi
  echo "  $1 $v <= $2"
}
git show HEAD:BENCH_smoke.json >"$tmp/base.json"
dune exec bench/main.exe -- --scale smoke fig3 --json "$tmp/smoke.json"
# Allocation gate: fig3 smoke's allocated words come from
# Sim.allocated_words, which is deterministic at -j1 (no machine noise), so
# the bar is exact: any word over the committed figure is a real
# allocation regression — or an intentional one, in which case commit the
# refreshed baseline.
at_most allocated_words "$(num allocated_words "$tmp/base.json")"
# Storage gates: resident words per retained version must stay within 10%
# of the committed baseline, and so must the resident store words
# themselves, which (unlike the per-version ratio) fall when the store
# shrinks.  Both are deterministic (arena accounting, not wall clock), so a
# trip is a genuine layout regression — or an intentional change, in which
# case commit the refreshed baseline.
at_most words_per_version "1.1 * $(num words_per_version "$tmp/base.json")"
at_most store_words "1.1 * $(num store_words "$tmp/base.json")"
# Observer-effect gate: the same fig3 smoke run traced (--observe) must
# execute the exact same trajectory — identical DES event counts, virtual
# time, and committed transactions (docs/OBSERVABILITY.md).
dune exec bench/main.exe -- --scale smoke fig3 --json "$tmp/observed.json" --observe >/dev/null
for key in des_events virtual_seconds committed_txns; do
  [ "$(num $key "$tmp/smoke.json")" = "$(num $key "$tmp/observed.json")" ] ||
    fail "observer effect: $key differs with --observe"
done
echo "  observe=on trajectory identical"
# Speedup gate: with >= 4 cores, fig3 fanned across every core (-j max,
# sss_par pool) must run at least 2x faster than the quiet -j1 baseline
# --speedup times alongside it.
jobs=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$jobs" -ge 4 ]; then
  dune exec bench/main.exe -- --scale smoke fig3 -j max --speedup --json "$tmp/par.json" >/dev/null
  speedup=$(sed -n '/"speedup_vs_j1"/,/}/s/.*"fig3": \([0-9.]*\).*/\1/p' "$tmp/par.json")
  if [ -z "$speedup" ] || ! awk "BEGIN { exit !($speedup >= 2.0) }"; then
    fail "fig3 speedup at -j$jobs is '${speedup:-none}', need >= 2.0"
  fi
  echo "  fig3 ${speedup}x at -j$jobs"
else
  echo "  speedup gate skipped ($jobs core(s))"
fi

echo "check: saturation smoke"
# The open-loop engine must be doing real work: the bench target's JSON
# counters have to show arrivals were rejected (the knee was crossed) and
# the online GC collected versions.
dune exec bench/main.exe -- --scale smoke saturation --json "$tmp/sat.json" >/dev/null
for key in rejected gc_dropped_versions; do
  val=$(num $key "$tmp/sat.json")
  if [ -z "$val" ] || [ "$val" -eq 0 ]; then
    fail "saturation smoke JSON has $key = '${val:-missing}', expected > 0"
  fi
done

echo "check: same-run throughput (tools/ab.sh HEAD fig3 10)"
# Wall clock is compared only with HEAD built and run in the same minutes,
# ten interleaved pairs, so machine drift hits both sides alike.
TMPDIR=$tmp sh tools/ab.sh HEAD fig3 10 >"$tmp/ab.txt" 2>"$tmp/ab.log" ||
  { cat "$tmp/ab.log" >&2; fail "tools/ab.sh did not finish"; }
verdict=$(grep '^verdict: ' "$tmp/ab.txt") || fail "tools/ab.sh printed no verdict"
echo "  $verdict"
case $verdict in "verdict: des_events_per_sec ok "*) ;; *) cat "$tmp/ab.txt" >&2; fail "fig3 throughput fell" ;; esac

echo "check: perfbench self-test"
# The known-bad configurations (perfbench/workloads.ml) must each read as
# failing, and their lines (attempted, failed and stalled counts, the
# checks that failed) pin the trajectories of the runs behind them.
dune build perfbench/perfbench.exe
./_build/default/perfbench/perfbench.exe --selftest >"$tmp/selftest.txt"
matches "$tmp/selftest.txt" test/golden/perfbench_selftest.txt "perfbench.exe --selftest"

echo "check: stress --open"
# The large open-loop ladder records its history; every rung must pass
# the five-property checker battery over it, not just quiescence.
dune exec bin/stress.exe -- --open

echo "check: stress sweep"
# The sweep's summary lines (committed counts, divergence reports) pin the
# trajectories of every stressed run; a refactor must reproduce them.
dune exec bin/stress.exe -- -j max >"$tmp/stress.txt"
matches "$tmp/stress.txt" test/golden/stress.txt "dune exec bin/stress.exe -- -j max"

echo "check: no presized tables"
presized=$(grep -rnE 'Hashtbl\.create[[:space:]]+[0-9]+' lib --include='*.ml' |
  awk '{ match($0, /Hashtbl\.create[[:space:]]+[0-9]+/);
         n = substr($0, RSTART, RLENGTH); sub(/^Hashtbl\.create[[:space:]]+/, "", n);
         if (n + 0 > 16) print }')
if [ -n "$presized" ]; then
  echo "$presized" >&2
  fail "Hashtbl.create above 16 in lib/ (start at 16 and let the table grow)"
fi

echo "check: line budget"
lines=$(cat lib/*/*.ml lib/*/*.mli bin/*.ml | wc -l)
lint_lines=$(cat tools/lint/*.ml | wc -l)
echo "  lib/ + bin/: $lines lines (budget 13500); tools/lint: $lint_lines lines (budget 1700)"
if [ "$lines" -gt 13500 ] || [ "$lint_lines" -gt 1700 ]; then
  fail "over the line budget (ROADMAP: the same behaviour from less code)"
fi

echo "check: one run pipeline"
stray=$(grep -rn 'Store\.create\|Store\.drive' lib bin bench test |
  grep -v '^lib/experiments/store\.ml:\|^lib/experiments/spec\.ml:' || true)
if [ -n "$stray" ]; then
  echo "$stray" >&2
  fail "Store.create/Store.drive outside lib/experiments/{store,spec}.ml (build a Spec.t and call Spec.run)"
fi
# A call is Driver.run followed by its arguments; a record is built by
# naming its begin_txn field (Driver.begin_txn = ..., { begin_txn = ... }).
stray=$(grep -rnE 'Driver\.run([[:space:]]|$)|(Driver\.|[{][[:space:]]*)begin_txn[[:space:]]*[=;]' \
  lib bin bench test | grep -v '^lib/experiments/store\.ml:' || true)
if [ -n "$stray" ]; then
  echo "$stray" >&2
  fail "Driver.run or a Driver.ops record outside lib/experiments/store.ml (build a Spec.t and call Spec.run)"
fi

echo "check: clean tree"
# A gate writes only under $tmp and _build/: the run leaves the tree as
# it found it, so no gate can refresh a committed baseline by accident.
end_state=$(state)
if [ "$end_state" != "$start_state" ]; then
  printf 'before:\n%s\nafter:\n%s\n' "$start_state" "$end_state" >&2
  fail "the run changed the working tree"
fi

echo "check: all gates passed"
