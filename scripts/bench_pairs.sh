#!/usr/bin/env bash
# Parent-vs-change evidence from the frozen benchmark: N pairs of runs per
# workload, alternating which side goes first, one JSON line per run, then
# a per-workload × per-metric table (medians, the parent's quartiles, the
# shift against the metric's bound from BENCHMARK.json).
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR PAIRS OUT.jsonl   run, then summarize
#   scripts/bench_pairs.sh --summarize OUT.jsonl                   table only
#
# PARENT_DIR and CHANGE_DIR are two checkouts (`git clone`, then
# `git checkout <commit>` in the parent's), each building its own
# benchmark binary. Each run is the driver's call: `--seconds` is
# `run_seconds` from BENCHMARK.json, the pair number is the seed.
set -euo pipefail
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

summarize() {
    python3 - "$1" "$ROOT/BENCHMARK.json" <<'PY'
import json, statistics, sys
runs = [json.loads(line) for line in open(sys.argv[1])]
manifest = json.load(open(sys.argv[2]))
def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]
print("| workload | metric | parent median [Q1–Q3] | change median [Q1–Q3] | median shift | parent IQR | change IQR | change better in | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
for w in [w["name"] for w in manifest["workloads"]]:
    side = {s: sorted((r for r in runs if r["workload"] == w and r["side"] == s),
                      key=lambda r: r["pair"]) for s in ("parent", "change")}
    for m in manifest["end_to_end"]:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        p = [r["result"]["metrics"][name]["value"] for r in side["parent"]]
        c = [r["result"]["metrics"][name]["value"] for r in side["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        # positive = the change is worse
        worse = (pm - cm) / pm if higher else (cm - pm) / pm
        # spread as the benchmark's own --agree takes it: IQR over median
        spread = max((p3 - p1) / pm, (c3 - c1) / cm)
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        verdict = ("unresolved (spread > bound)" if spread > bound
                   else "REGRESSION" if worse > bound else "within bound")
        print(f"| {w} | {name} ({m['unit']}) | {pm:.4g} [{p1:.4g}–{p3:.4g}] | {cm:.4g} [{c1:.4g}–{c3:.4g}] "
              f"| {(cm - pm) / pm:+.1%} | {(p3 - p1) / pm:.1%} | {(c3 - c1) / cm:.1%} "
              f"| {wins}/{len(p)} | {verdict} |")
    for s in ("parent", "change"):
        att = sum(r["result"]["attempted"] for r in side[s])
        bad = sum(r["result"]["failed"] for r in side[s])
        ok = all(r["result"]["correct"] for r in side[s])
        print(f"| {w} | failed/attempted, {s} | {bad}/{att} | | | | | | {'all answers correct' if ok else 'WRONG ANSWERS'} |")
PY
}

if [[ "${1:-}" == "--summarize" ]]; then
    summarize "$2"
    exit
fi

PARENT=$1 CHANGE=$2 PAIRS=$3 OUT=$4
SECONDS_PER_RUN=$(python3 -c "import json; print(json.load(open('$ROOT/BENCHMARK.json'))['run_seconds'])")
: > "$OUT"
run() { # side dir workload pair order
    local line
    line=$(cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$4" \
        --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -1)
    echo "{\"side\": \"$1\", \"workload\": \"$3\", \"pair\": $4, \"order\": $5, \"result\": $line}" >> "$OUT"
}
for pair in $(seq 1 "$PAIRS"); do
    for w in horiz_scan vert_join remote_stream mixed_rw; do
        if (( pair % 2 )); then
            run parent "$PARENT" "$w" "$pair" 1; run change "$CHANGE" "$w" "$pair" 2
        else
            run change "$CHANGE" "$w" "$pair" 1; run parent "$PARENT" "$w" "$pair" 2
        fi
    done
done
summarize "$OUT"
