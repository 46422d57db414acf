#!/bin/sh
# Full local gate, in dependency order:
#
#   1. dune build           — the tree compiles (warn-error in every scope)
#   2. dune runtest         — unit/property/golden suites (includes @lint via
#                             the runtest alias, but run the linter explicitly
#                             below so a lint failure is unmistakable)
#   3. sss_lint             — typed whole-program engine over all four
#                             source trees; the repo promise is ZERO
#                             findings, so any finding fails the gate
#   4. bench/smoke.sh       — fig3 smoke benchmark + throughput-regression
#                             gate against the committed BENCH_smoke.json,
#                             and its exact allocated-words gate
#   5. durability smoke     — durability=off must not move the fig3 smoke
#                             trajectory vs the committed baseline, and the
#                             durable paths (WAL overhead + crash recovery)
#                             must run clean at smoke scale
#   6. saturation smoke     — the open-loop engine + online GC: the smoke
#                             sweep must replay the committed golden
#                             byte-for-byte, and the bench JSON must show
#                             admission rejection and GC drops actually
#                             happened
#   7. perfbench self-test  — the benchmark must still report each of its
#                             known-bad configurations as a failure
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
#
# Run from the repository root.
set -eu

echo "check: dune build"
dune build

echo "check: dune runtest"
dune runtest

echo "check: sss_lint (typed, zero findings)"
# @check materializes fresh .cmt artifacts for every scope, including the
# executables' (plain `dune build` does not refresh those).
dune build @check
dune exec tools/lint/sss_lint.exe -- lib bin bench tools

echo "check: bench smoke"
sh bench/smoke.sh

echo "check: durability smoke"
# Durability is off by default, and off must mean OFF: the fig3 smoke
# trajectory (deterministic fields of the run smoke.sh just wrote) has to
# be byte-identical to the committed baseline.  A drift here means the
# storage engine leaked into the non-durable hot path.
for key in '"des_events"' '"virtual_seconds"' '"committed_txns"'; do
  head_line=$(git show HEAD:BENCH_smoke.json 2>/dev/null | grep "$key" | head -1 || true)
  new_line=$(grep "$key" BENCH_smoke.json | head -1)
  if [ -n "$head_line" ] && [ "$head_line" != "$new_line" ]; then
    echo "check FAIL: durability=off trajectory moved ($key: '$head_line' vs '$new_line')" >&2
    echo "  (commit the refreshed BENCH_smoke.json only if the change is intentional)" >&2
    exit 1
  fi
done
# And the durable paths themselves must run clean: the WAL overhead table
# plus the crash-recovery checkpoint sweep, seconds-long at smoke scale.
dune exec bench/main.exe -- --scale smoke durability >/dev/null
echo "check: durability gates OK"

echo "check: saturation smoke"
# Open-loop + GC trajectory gate: the saturation smoke sweep (Poisson and
# Ramp arrivals, admission queues, watermark GC, SSS + 2PC) regenerated
# from scratch must equal the committed golden byte-for-byte.
dune exec bin/golden.exe -- saturation > BENCH_sat_check.txt
if ! cmp -s BENCH_sat_check.txt test/golden/saturation_smoke.txt; then
  diff BENCH_sat_check.txt test/golden/saturation_smoke.txt >&2 || true
  echo "check FAIL: saturation smoke trajectory diverged from test/golden/saturation_smoke.txt" >&2
  echo "  (regenerate with 'dune exec bin/golden.exe -- saturation' only if intentional)" >&2
  exit 1
fi
rm -f BENCH_sat_check.txt
# And the open-loop engine must be doing real work: the bench target's
# JSON counters have to show arrivals were rejected (the knee was crossed)
# and the online GC collected versions.
dune exec bench/main.exe -- --scale smoke saturation --json BENCH_sat_check.json >/dev/null
for key in rejected gc_dropped_versions; do
  val=$(grep -o "\"$key\": [0-9]*" BENCH_sat_check.json | head -1 | tr -cd '0-9')
  if [ -z "$val" ] || [ "$val" -eq 0 ]; then
    echo "check FAIL: saturation smoke JSON has $key = '${val:-missing}', expected > 0" >&2
    exit 1
  fi
done
rm -f BENCH_sat_check.json
echo "check: saturation gates OK"

echo "check: perfbench self-test"
# The known-bad configurations (perfbench/workloads.ml) must each read as
# failing; --force re-runs it on an unchanged tree, so every line
# is printed on every gate.
dune build --force @perfbench/selftest

echo "check: stress --open"
# The large open-loop ladder records its history; every rung must pass
# the five-property checker battery over it, not just quiescence.
dune exec bin/stress.exe -- --open

echo "check: stress sweep"
# The sweep's summary lines (committed counts, divergence reports) pin the
# trajectories of every stressed run; a refactor must reproduce them.
dune exec bin/stress.exe -- -j max > BENCH_stress_check.txt
if ! cmp -s BENCH_stress_check.txt test/golden/stress.txt; then
  diff BENCH_stress_check.txt test/golden/stress.txt >&2 || true
  echo "check FAIL: stress output diverged from test/golden/stress.txt" >&2
  echo "  (regenerate with 'dune exec bin/stress.exe -- -j max' only if intentional)" >&2
  exit 1
fi
rm -f BENCH_stress_check.txt

echo "check: no presized tables"
presized=$(grep -rnE 'Hashtbl\.create[[:space:]]+[0-9]+' lib --include='*.ml' |
  awk '{ match($0, /Hashtbl\.create[[:space:]]+[0-9]+/);
         n = substr($0, RSTART, RLENGTH); sub(/^Hashtbl\.create[[:space:]]+/, "", n);
         if (n + 0 > 16) print }')
if [ -n "$presized" ]; then
  echo "$presized" >&2
  echo "check FAIL: Hashtbl.create above 16 in lib/ (start at 16 and let the table grow)" >&2
  exit 1
fi

echo "check: line budget"
lines=$(cat lib/*/*.ml lib/*/*.mli bin/*.ml | wc -l)
lint_lines=$(cat tools/lint/*.ml | wc -l)
echo "  lib/ + bin/: $lines lines (budget 13500); tools/lint: $lint_lines lines (budget 1700)"
if [ "$lines" -gt 13500 ] || [ "$lint_lines" -gt 1700 ]; then
  echo "check FAIL: over the line budget (ROADMAP: the same behaviour from less code)" >&2
  exit 1
fi

echo "check: all gates passed"
