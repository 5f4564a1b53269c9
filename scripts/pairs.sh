#!/usr/bin/env bash
# Alternating-pairs benchmark of the working tree against a git ref. Run
# from anywhere inside the repository:
#
#   scripts/pairs.sh <ref> [-n 10] [-w workload] [-s seed]
#
# It checks <ref> out into a temporary git worktree and builds the bench
# binary in both trees the way bench/run.sh does. Then it runs n pairs of
# `--workload <w> --seed <s> --seconds 10 --trace 0`, one run per tree, each
# from its own tree's root: odd pairs run <ref> first, even pairs the
# working tree first, so drift does not favour one side. It prints the
# `pairs` section of a BENCH_*.json file on stdout: for every end-to-end
# metric of BENCHMARK.json, the inclusive quartiles of each side ("parent"
# is <ref>, "change" the working tree), the ratio of medians, the parent's
# IQR and how many pairs the change won (read strictly better in the same
# pair), then every run. Progress goes to stderr. Needs git, go and python3.
set -euo pipefail

usage() {
	echo "usage: $0 <ref> [-n pairs] [-w workload] [-s seed]" >&2
	exit 2
}
[ $# -ge 1 ] || usage
ref=$1
shift
n=10 workload=sweep-warm seed=1
while getopts n:w:s: opt; do
	case $opt in
	n) n=$OPTARG ;;
	w) workload=$OPTARG ;;
	s) seed=$OPTARG ;;
	*) usage ;;
	esac
done

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
tmp=$(mktemp -d)
base=$tmp/base
cleanup() {
	git -C "$root" worktree remove --force "$base" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$base" "$sha"

# build <tree>: bench/run.sh's build, into <tree>/.bench_build.
build() {
	local out=$1/.bench_build
	mkdir -p "$out"
	(cd "$1/bench" && GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false go build -o "$out/edgeslice-bench" .)
}
build "$base"
build "$root"

# run <tree> <side> <pair>: one run; prints its last stdout line, tagged.
run() {
	local line
	echo "pairs.sh: pair $3/$n, $2" >&2
	line=$(cd "$1" && .bench_build/edgeslice-bench --workload "$workload" --seed "$seed" --seconds 10 --trace 0 | tail -n 1)
	printf '{"pair":%d,"side":"%s","line":%s}\n' "$3" "$2" "$line"
}

for ((p = 1; p <= n; p++)); do
	if ((p % 2)); then
		run "$base" parent "$p" >>"$tmp/runs"
		run "$root" change "$p" >>"$tmp/runs"
	else
		run "$root" change "$p" >>"$tmp/runs"
		run "$base" parent "$p" >>"$tmp/runs"
	fi
done

python3 - "$root/BENCHMARK.json" "$tmp/runs" "$sha" "$workload" "$seed" <<'EOF'
import json, statistics, sys

bench, runs_path, sha, workload, seed = sys.argv[1:]
metrics = json.load(open(bench))["end_to_end"]
runs = []
for l in open(runs_path):
    r = json.loads(l)
    line = r["line"]
    row = {"pair": r["pair"], "side": r["side"], "attempted": line["attempted"],
           "failed": line["failed"], "correct": line["correct"]}
    row.update({k: v["value"] for k, v in line["metrics"].items()})
    runs.append(row)

def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"q1": q1, "median": med, "q3": q3}

summary = {}
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    side = {s: {r["pair"]: r[name] for r in runs if r["side"] == s and name in r} for s in ("parent", "change")}
    pairs = sorted(set(side["parent"]) & set(side["change"]))
    if not pairs:
        continue
    par, chg = quartiles([side["parent"][p] for p in pairs]), quartiles([side["change"][p] for p in pairs])
    wins = sum((side["change"][p] > side["parent"][p]) if higher else (side["change"][p] < side["parent"][p]) for p in pairs)
    summary[name] = {"better": m["better"], "bound": m["bound"], "parent": par, "change": chg,
                     "ratio_of_medians": chg["median"] / par["median"] if par["median"] else None,
                     "change_wins": wins, "pairs": len(pairs), "parent_iqr": par["q3"] - par["q1"]}

print(json.dumps({
    "method": "scripts/pairs.sh: alternating-order parent/change pairs (odd pairs parent first, even pairs change first); "
              "each run is the bench binary built from each tree's bench/ (parent = a git worktree of %s, change = the working tree), "
              "run as `--workload <w> --seed <s> --seconds 10 --trace 0` from its own tree's root, last stdout line kept; "
              "quartiles are inclusive; a win is the change reading strictly better than the parent in the same pair; "
              "bound = BENCHMARK.json's for the metric" % sha,
    "seeds": {seed: {workload: {"summary": summary, "runs": runs}}},
}, indent=1))
EOF
