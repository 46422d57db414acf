#!/bin/sh
# One-command sanity pass: build, run the test suite, lint, then a
# seconds-long fig3 benchmark at smoke scale with the JSON perf report.
# Run from the repository root; refreshes BENCH_smoke.json with the median
# of three -j 1 runs (the committed baseline — commit the refresh when a
# perf change is intentional).  The -j max run of the parallel gate is only compared and
# then deleted: its allocation counts cover the main domain alone.
set -eu

# Engine-throughput baseline for the regression gate below: the committed
# BENCH_smoke.json (HEAD copy, so a previous local run can't move the bar).
baseline_eps=$(git show HEAD:BENCH_smoke.json 2>/dev/null \
  | grep '"des_events_per_sec"' | head -1 | tr -cd '0-9' || true)
# Resident-store baseline for the footprint gate (absent before schema 6).
baseline_wpv=$(git show HEAD:BENCH_smoke.json 2>/dev/null \
  | grep '"words_per_version"' | head -1 | sed -n 's/.*: *\([0-9.]*\).*/\1/p' || true)
baseline_sw=$(git show HEAD:BENCH_smoke.json 2>/dev/null \
  | grep '"store_words"' | head -1 | tr -cd '0-9' || true)
baseline_aw=$(git show HEAD:BENCH_smoke.json 2>/dev/null \
  | grep '"allocated_words"' | head -1 | tr -cd '0-9' || true)

dune build
dune runtest
dune build @lint
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "smoke: odoc not installed; skipping doc build"
fi
# Three -j1 runs (the table is printed once); the one with the median DES
# events/sec becomes BENCH_smoke.json.  A single run on a shared VM swings
# by a third, which a 10% bar cannot absorb.
eps_of() { grep '"des_events_per_sec"' "$1" | head -1 | tr -cd '0-9'; }
dune exec bench/main.exe -- --scale smoke fig3 --json BENCH_smoke_run1.json
for i in 2 3; do
  dune exec bench/main.exe -- --scale smoke fig3 --json BENCH_smoke_run$i.json >/dev/null
done
median=$(for i in 1 2 3; do echo "$(eps_of BENCH_smoke_run$i.json) $i"; done \
  | sort -n | sed -n 2p | cut -d' ' -f2)
mv BENCH_smoke_run"$median".json BENCH_smoke.json
rm -f BENCH_smoke_run1.json BENCH_smoke_run2.json BENCH_smoke_run3.json

# Throughput-regression gate: the median -j1 run must stay within 10% of
# the committed baseline's DES events/sec.  Machine drift is real, so the
# bar is deliberately loose; a trip means either a genuine engine
# regression or a slower machine — investigate, and if the new number is
# the truth, commit the refreshed BENCH_smoke.json.
new_eps=$(eps_of BENCH_smoke.json)
if [ -n "$baseline_eps" ] && [ -n "$new_eps" ]; then
  if awk "BEGIN { exit !($new_eps < 0.9 * $baseline_eps) }"; then
    echo "smoke FAIL: des_events_per_sec $new_eps < 90% of baseline $baseline_eps" >&2
    exit 1
  fi
  echo "smoke: throughput gate OK ($new_eps ev/s vs baseline $baseline_eps)"
else
  echo "smoke: throughput gate skipped (no committed baseline)"
fi

# Storage-regression gate: resident words per retained version must stay
# within 10% of the committed baseline.  This is deterministic (arena
# accounting, not wall clock), so a trip is a genuine layout regression —
# or an intentional change, in which case commit the refreshed baseline.
new_wpv=$(grep '"words_per_version"' BENCH_smoke.json | head -1 \
  | sed -n 's/.*: *\([0-9.]*\).*/\1/p')
if [ -n "$baseline_wpv" ] && [ -n "$new_wpv" ]; then
  if awk "BEGIN { exit !($new_wpv > 1.1 * $baseline_wpv) }"; then
    echo "smoke FAIL: words_per_version $new_wpv > 110% of baseline $baseline_wpv" >&2
    exit 1
  fi
  echo "smoke: storage gate OK ($new_wpv words/version vs baseline $baseline_wpv)"
else
  echo "smoke: storage gate skipped (no words_per_version baseline)"
fi
# The same bound on resident store words themselves, which (unlike the
# per-version ratio) fall when the store shrinks.
new_sw=$(grep '"store_words"' BENCH_smoke.json | head -1 | tr -cd '0-9')
if [ -n "$baseline_sw" ] && [ -n "$new_sw" ]; then
  if awk "BEGIN { exit !($new_sw > 1.1 * $baseline_sw) }"; then
    echo "smoke FAIL: store_words $new_sw > 110% of baseline $baseline_sw" >&2
    exit 1
  fi
  echo "smoke: store-words gate OK ($new_sw words vs baseline $baseline_sw)"
else
  echo "smoke: store-words gate skipped (no store_words baseline)"
fi

# Allocation gate: fig3 smoke's allocated words come from
# Sim.allocated_words, which is deterministic at -j1 (no machine noise), so
# the bar is exact: any word over the committed figure is a real
# allocation regression — or an intentional one, in which case commit the
# refreshed baseline.
new_aw=$(grep '"allocated_words"' BENCH_smoke.json | head -1 | tr -cd '0-9')
if [ -n "$baseline_aw" ] && [ -n "$new_aw" ]; then
  if [ "$new_aw" -gt "$baseline_aw" ]; then
    echo "smoke FAIL: allocated_words $new_aw > committed $baseline_aw" >&2
    exit 1
  fi
  echo "smoke: allocation gate OK ($new_aw words vs committed $baseline_aw)"
else
  echo "smoke: allocation gate skipped (no allocated_words baseline)"
fi

# Observer-effect gate: the same fig3 smoke run traced (--observe) must
# execute the exact same trajectory — identical DES event counts, virtual
# time, and committed transactions (docs/OBSERVABILITY.md).
dune exec bench/main.exe -- --scale smoke fig3 --json BENCH_smoke_observed.json --observe \
  >/dev/null
for key in des_events virtual_seconds committed_txns; do
  off=$(grep "\"$key\"" BENCH_smoke.json)
  on=$(grep "\"$key\"" BENCH_smoke_observed.json)
  if [ "$off" != "$on" ]; then
    echo "smoke FAIL: observer effect detected ($key differs: '$off' vs '$on')" >&2
    exit 1
  fi
done
rm -f BENCH_smoke_observed.json
echo "smoke: observer-effect gate OK (observe=on trajectory identical)"

# Parallel gate: the same fig3 smoke run fanned across every core (-j max,
# sss_par pool) must report the exact same deterministic fields as -j1 —
# the pool merges results in submission order, so only wall-clock keys may
# differ.  With >= 4 cores the run must also be at least 2x faster than
# the quiet -j1 baseline --speedup times alongside it.
JOBS=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
dune exec bench/main.exe -- --scale smoke fig3 -j max --speedup \
  --json BENCH_smoke_par.json >/dev/null
for key in des_events virtual_seconds committed_txns runs; do
  j1=$(grep "\"$key\"" BENCH_smoke.json)
  jn=$(sed -n '/"targets"/,/\]/p' BENCH_smoke_par.json | grep "\"$key\"")
  if [ "$j1" != "$jn" ]; then
    echo "smoke FAIL: -j$JOBS diverged from -j1 ($key differs: '$j1' vs '$jn')" >&2
    exit 1
  fi
done
echo "smoke: parallel gate OK (-j$JOBS targets identical to -j1)"
speedup=$(sed -n '/"speedup_vs_j1"/,/}/p' BENCH_smoke_par.json \
  | sed -n 's/.*"fig3": \([0-9.]*\).*/\1/p')
if [ "$JOBS" -ge 4 ]; then
  if [ -z "$speedup" ] || ! awk "BEGIN { exit !($speedup >= 2.0) }"; then
    echo "smoke FAIL: fig3 speedup at -j$JOBS is '${speedup:-none}', need >= 2.0" >&2
    exit 1
  fi
  echo "smoke: speedup gate OK (fig3 ${speedup}x at -j$JOBS)"
else
  echo "smoke: speedup gate skipped ($JOBS core(s); fig3 ${speedup:-n/a}x)"
fi
rm -f BENCH_smoke_par.json
echo "smoke OK"
