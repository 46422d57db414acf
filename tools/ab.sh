#!/bin/sh
# Same-run pairs: a speed or size claim against revision REV, measured in
# one sitting so that machine drift hits both sides alike.
#
#   tools/ab.sh REV [TARGET] [K] [SECONDS]
#
# Builds REV from a `git archive` export in a temporary directory (removed
# on exit) and the working tree, then runs K interleaved pairs of TARGET,
# alternating which side runs first, and prints for every metric the
# median and quartiles of each side and the number of pairs in which the
# working tree reads higher.  For a perfbench workload it then prints one
# verdict per end_to_end metric of BENCHMARK.json: WORSE when the working
# tree's median is worse than REV's by more than the metric's bound, read
# as a fraction of REV's median; ok otherwise.
#
# TARGET is a perfbench workload (paper-closed, open-durable,
# checked-faults: --seed 1 --trace 0 --seconds SECONDS, default 5) or fig3
# (bench/main.exe --scale smoke fig3 at -j1, the default).  K defaults to
# 10.
# Nothing in the working tree changes: outputs go to a temporary
# directory ($TMPDIR, or /tmp).  Run from the repository root.
set -eu

if [ $# -lt 1 ]; then
  echo "usage: tools/ab.sh REV [paper-closed|open-durable|checked-faults|fig3] [K] [SECONDS]" >&2
  exit 2
fi
rev=$1
target=${2:-fig3}
k=${3:-10}
seconds=${4:-5}
case $target in
  paper-closed | open-durable | checked-faults) exe=perfbench/perfbench.exe ;;
  fig3) exe=bench/main.exe ;;
  *) echo "ab: unknown target $target" >&2; exit 2 ;;
esac

root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"
# its own dune root, or dune would resolve the enclosing one
printf '(lang dune 3.0)\n' >"$tmp/base/dune-workspace"
# both sides run from copies, so later edits or builds in the working
# tree cannot reach a run
DUNE_CACHE=disabled dune build --root "$tmp/base" "./$exe" >&2
cp "$tmp/base/_build/default/$exe" "$tmp/base.exe"
DUNE_CACHE=disabled dune build --root "$root" "./$exe" >&2
cp "$root/_build/default/$exe" "$tmp/change.exe"

# run SIDE: one run of the target, its JSON in $tmp/SIDE.$i.json
run() {
  out="$tmp/$1.$i.json"
  if [ "$target" = fig3 ]; then
    (cd "$tmp" && "./$1.exe" --scale smoke fig3 --json "$out" >/dev/null)
  else
    (cd "$tmp" && "./$1.exe" --workload "$target" --seed 1 --seconds "$seconds" --trace 0 \
      --out "$tmp/out" >"$tmp/$1.log") || true
    tail -1 "$tmp/$1.log" >"$out"
  fi
  if ! grep -q '"' "$out"; then
    echo "ab: the $1 side printed no result (pair $i)" >&2
    exit 1
  fi
}

i=1
while [ "$i" -le "$k" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run base
    run change
  else
    run change
    run base
  fi
  echo "ab: pair $i of $k done" >&2
  i=$((i + 1))
done

python3 - "$tmp" "$k" "$rev" "$target" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys

tmp, k, rev, target, benchmark = sys.argv[1:]
k = int(k)

def metrics(path):
    d = json.load(open(path))
    if "targets" in d:  # bench/main.exe
        return {m: v for m, v in d["targets"][0].items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)}
    return {m: v["value"] for m, v in d["metrics"].items()}

base = [metrics(f"{tmp}/base.{i}.json") for i in range(1, k + 1)]
change = [metrics(f"{tmp}/change.{i}.json") for i in range(1, k + 1)]

def fmt(v):
    return f"{v:.0f}" if float(v).is_integer() else f"{v:.6g}"

def summary(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return f"{fmt(q[1])} [{fmt(q[0])}, {fmt(q[2])}]"

print(f"{target}: {k} pairs, {rev} vs the working tree; median [q1, q3]")
print(f"{'metric':<34} {'base':<38} {'change':<38} higher")
for m in base[0]:
    if not all(m in r for r in base + change):
        continue
    b = [r[m] for r in base]
    c = [r[m] for r in change]
    higher = sum(1 for x, y in zip(b, c) if y > x)
    print(f"{m:<34} {summary(b):<38} {summary(c):<38} {higher}/{k}")

if target != "fig3":
    print(f"verdicts: the change's median against the base's, bounds from {benchmark}")
    for e in json.load(open(benchmark))["end_to_end"]:
        m = e["name"]
        if not all(m in r for r in base + change):
            print(f"{m:<34} missing")
            continue
        b = statistics.median(r[m] for r in base)
        c = statistics.median(r[m] for r in change)
        worse_by = c - b if e["better"] == "lower" else b - c
        verdict = "WORSE" if worse_by > e["bound"] * abs(b) else "ok"
        print(f"{m:<34} {verdict:<6} {fmt(b)} -> {fmt(c)} "
              f"(bound {e['bound']}, {e['better']} is better)")
EOF
