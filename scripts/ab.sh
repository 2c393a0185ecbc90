#!/usr/bin/env bash
# ab.sh — alternating A/B runs of the benchmark over two revisions, with the
# verdict table a performance claim needs.
#
#   scripts/ab.sh <parent-rev> <change-rev> <workload|all> <seed>...
#   scripts/ab.sh --report <run-dir>
#
# Both revisions are checked out with `git worktree add --detach` under
# .bench_build/ab/ (git-ignored) and each benchmark binary is built once,
# from its own checkout. Then, for every seed, one pair of untraced runs
# (`--trace 0`) of the named workload, or of all four: the parent runs first
# in odd pairs and the change first in even ones, so a noisy stretch of the
# host does not always land on the same side. Every run keeps its `--out`
# JSON in the run directory, which the script prints.
#
# The report reads the bounds and directions of BENCHMARK.json (the parent's
# copy) and prints, per workload and end-to-end metric: each side's median
# and quartiles, the change's median relative to the parent's, the pairs the
# change won (ties count for neither side), and a verdict:
#
#   gain        the change wins >= 9/10 of the pairs and the medians differ,
#               in the better direction, by more than the parent's IQR (a
#               claim needs at least 10 pairs; the report says when it has
#               fewer)
#   worse       the change's median is worse than the parent's by more than
#               the metric's bound
#   unresolved  neither, and one side's IQR exceeds the bound (relative to
#               the parent's median), unless every change run is better
#               than every parent run
#   unchanged   everything else
#
# Every run also records the host's conditions (host.tsv): /proc/stat is
# read, and nothing else touched, before and after the run, and the report
# gives, in points of one CPU over the run's wall time, the CPU stolen from
# the machine (steal) and the CPU used by everything but the benchmark
# process and its children (others). A pair whose two sides differ by more
# than 10 points in either is flagged: its difference may be the host's.
# After the verdict table come the host conditions of every pair, and for
# each workload and metric whose verdict is `worse` or `unresolved`, its
# pairs one by one with their host conditions.
#
# The report is markdown (report.md) plus the verdict rows as JSON
# (report.json), both written to the run directory; `--report` rebuilds them
# from a run directory without running anything. Nothing is fetched: the
# revisions must already be in the local repository.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
ab="$root/.bench_build/ab"

usage() {
	echo "usage: $0 <parent-rev> <change-rev> <workload|all> <seed>..." >&2
	echo "       $0 --report <run-dir>" >&2
	exit 2
}

# report <run-dir>: the verdict table from the runs listed in runs.tsv.
report() {
	local dir="$1" spec="$1/BENCHMARK.json"
	[ -f "$dir/runs.tsv" ] && [ -f "$spec" ] || {
		echo "ab: $dir holds no runs.tsv and BENCHMARK.json" >&2
		exit 1
	}
	# One line per value: pair side workload metric value. A run that left
	# no JSON (it failed) contributes nothing, and its pair no win.
	local values="$dir/values.tsv"
	: >"$values"
	while IFS=$'\t' read -r pair side seed file; do
		[ -f "$dir/$file" ] || continue
		jq -r --arg p "$pair" --arg s "$side" '.results[] | select(.trace == 0) as $r
			| $r.metrics | to_entries[] | [$p, $s, $r.workload, .key, .value.value] | @tsv' \
			"$dir/$file" >>"$values"
		jq -r --arg p "$pair" --arg s "$side" '.results[] | select(.trace == 0 and .noisy)
			| [$p, $s, .workload, "noisy", 1] | @tsv' "$dir/$file" >>"$values"
	done <"$dir/runs.tsv"
	jq -r '.end_to_end[] | [.name, .better, .bound] | @tsv' "$spec" >"$dir/spec.tsv"
	# Run directories from before host conditions were recorded have none.
	local host="$dir/host.tsv"
	[ -f "$host" ] || host=/dev/null

	awk -F'\t' -v json="$dir/report.json" '
	function sortv(a, n,    i, j, t) {
		for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t }
	}
	# q is the linearly interpolated quantile of the sorted a[1..n].
	function q(a, n, p,    h, lo) {
		if (n == 0) return 0
		h = (n - 1) * p; lo = int(h)
		return lo + 1 < n ? a[lo+1] + (h - lo) * (a[lo+2] - a[lo+1]) : a[n]
	}
	function abs(x) { return x < 0 ? -x : x }
	function cond(p, side) { return (p, side) in hosted ? sprintf("%.1f / %.1f", steal[p, side], others[p, side]) : "-" }
	function flag(p) {
		if (!((p, "parent") in hosted) || !((p, "change") in hosted)) return "-"
		return abs(steal[p, "change"] - steal[p, "parent"]) > 10 || abs(others[p, "change"] - others[p, "parent"]) > 10 ? "FLAG" : ""
	}
	function fmt(x) { return abs(x) >= 10000 ? sprintf("%.0f", x) : sprintf("%.5g", x) }
	FILENAME ~ /spec.tsv$/ { better[$1] = $2; bound[$1] = $3; order[++nm] = $1; next }
	# host.tsv: pair side seed, then /proc/stat tick deltas over the run
	# (total, busy, steal), the ticks of the benchmark process and its
	# children, and the CPU count. Conditions in points of one CPU.
	FILENAME !~ /values.tsv$/ {
		wall = $4 / $8
		seed[$1] = $3; hosted[$1, $2] = 1
		steal[$1, $2] = wall > 0 ? 100 * $6 / wall : 0
		others[$1, $2] = wall > 0 ? 100 * ($5 - $6 - $7) / wall : 0
		next
	}
	{
		pair = $1; side = $2; w = $3; m = $4; v = $5
		if (!(w in seenw)) { seenw[w] = 1; ws[++nw] = w }
		if (m == "noisy") { noisy[w, side]++; next }
		val[w, m, side, pair] = v; has[w, m, side, pair] = 1
		if (!((w, m, side) in cnt)) cnt[w, m, side] = 0
		xs[w, m, side, ++cnt[w, m, side]] = v
		if (!(pair in seenp)) { seenp[pair] = 1; pairs[++np] = pair }
	}
	END {
		print "| workload | metric | parent median [Q1, Q3] | change median [Q1, Q3] | change/parent | wins | verdict |"
		print "|---|---|---|---|---|---|---|"
		printf "[" >json
		first = 1
		for (i = 1; i <= nw; i++) {
			w = ws[i]
			for (k = 1; k <= nm; k++) {
				m = order[k]
				np_ = cnt[w, m, "parent"] + 0; nc = cnt[w, m, "change"] + 0
				if (np_ == 0 || nc == 0) continue
				delete a; delete b
				for (j = 1; j <= np_; j++) a[j] = xs[w, m, "parent", j]
				for (j = 1; j <= nc; j++) b[j] = xs[w, m, "change", j]
				sortv(a, np_); sortv(b, nc)
				pm = q(a, np_, 0.5); p1 = q(a, np_, 0.25); p3 = q(a, np_, 0.75)
				cm = q(b, nc, 0.5); c1 = q(b, nc, 0.25); c3 = q(b, nc, 0.75)
				hi = better[m] == "higher"
				wins = 0; n = 0
				for (j = 1; j <= np; j++) {
					p = pairs[j]
					if (!((w, m, "parent", p) in has) || !((w, m, "change", p) in has)) continue
					n++
					d = val[w, m, "change", p] - val[w, m, "parent", p]
					if ((hi && d > 0) || (!hi && d < 0)) wins++
				}
				gap = hi ? cm - pm : pm - cm         # > 0: the change is better
				base = abs(pm) > 0 ? abs(pm) : 1
				spread = (p3 - p1 > c3 - c1 ? p3 - p1 : c3 - c1) / base
				sep = hi ? b[1] > a[np_] : b[nc] < a[1]  # every change run better
				if (n > 0 && wins >= 0.9 * n && gap > p3 - p1) verdict = "gain"
				else if (-gap / base > bound[m]) verdict = "worse"
				else if (spread > bound[m] && !sep) verdict = "unresolved"
				else verdict = "unchanged"
				ratio = abs(pm) > 0 ? sprintf("%.3f", cm / pm) : "-"
				printf "| %s | %s | %s [%s, %s] | %s [%s, %s] | %s | %d/%d | %s |\n", w, m,
					fmt(pm), fmt(p1), fmt(p3), fmt(cm), fmt(c1), fmt(c3), ratio, wins, n, verdict
				if (verdict == "worse" || verdict == "unresolved") { doubt[++nd] = w SUBSEP m; doubtv[nd] = verdict }
				printf "%s\n  {\"workload\": \"%s\", \"metric\": \"%s\", \"parent\": {\"median\": %s, \"q1\": %s, \"q3\": %s, \"n\": %d}, \"change\": {\"median\": %s, \"q1\": %s, \"q3\": %s, \"n\": %d}, \"wins\": %d, \"pairs\": %d, \"verdict\": \"%s\"}",
					first ? "" : ",", w, m, pm, p1, p3, np_, cm, c1, c3, nc, wins, n, verdict >json
				first = 0
			}
		}
		print "]" >json
		if (np < 10)
			printf "\n%d pairs: a claim needs at least 10, so no gain above is one\n", np
		print "\nHost conditions per pair, points of one CPU (steal / others; flag: the sides differ by more than 10):\n"
		print "| pair | seed | parent steal / others | change steal / others | flag |"
		print "|---|---|---|---|---|"
		for (j = 1; j <= np; j++) print "| " pairs[j] " | " seed[pairs[j]] " | " cond(pairs[j], "parent") " | " cond(pairs[j], "change") " | " flag(pairs[j]) " |"
		for (k = 1; k <= nd; k++) {
			split(doubt[k], wm, SUBSEP); w = wm[1]; m = wm[2]
			printf "\n%s %s (%s), pair by pair:\n\n", w, m, doubtv[k]
			print "| pair | seed | parent | change | change/parent | parent steal / others | change steal / others | flag |"
			print "|---|---|---|---|---|---|---|---|"
			for (j = 1; j <= np; j++) {
				p = pairs[j]
				if (!((w, m, "parent", p) in has) || !((w, m, "change", p) in has)) continue
				pv = val[w, m, "parent", p]; cv = val[w, m, "change", p]
				ratio = abs(pv) > 0 ? sprintf("%.3f", cv / pv) : "-"
				printf "| %s | %s | %s | %s | %s | %s | %s | %s |\n", p, seed[p], fmt(pv), fmt(cv),
					ratio, cond(p, "parent"), cond(p, "change"), flag(p)
			}
		}
		for (i = 1; i <= nw; i++) {
			w = ws[i]
			if (noisy[w, "parent"] + noisy[w, "change"] > 0)
				printf "\n%s: %d parent and %d change runs flagged noisy by the calibration guard\n", w, noisy[w, "parent"], noisy[w, "change"]
		}
	}' "$dir/spec.tsv" "$host" "$values" | tee "$dir/report.md"
	echo
	echo "ab: report in $dir/report.md and $dir/report.json"
}

# checkout <rev> <sha>: a detached worktree of sha under $ab, built once.
checkout() {
	local sha="$2" wt="$ab/${2:0:12}"
	if [ ! -d "$wt" ]; then
		git -C "$root" worktree add --detach "$wt" "$sha" >&2
	fi
	if [ "$(git -C "$wt" rev-parse HEAD)" != "$sha" ]; then
		echo "ab: $wt is not at $1 ($sha)" >&2
		exit 1
	fi
	if [ ! -x "$wt/.bench_build/bench" ]; then
		echo "ab: building $1 (${sha:0:12})" >&2
		mkdir -p "$wt/.bench_build/tmp"
		(cd "$wt/bench" && go build -o "$wt/.bench_build/bench" .)
	fi
	echo "$wt"
}

# bench <worktree> <sha> <args>...: one run with bench/run.sh's environment.
bench() {
	local wt="$1" sha="$2"
	shift 2
	(cd "$wt" && BENCH_COMMIT="$sha" TMPDIR="$wt/.bench_build/tmp" "$wt/.bench_build/bench" "$@")
}

# ticks: the uptime, the aggregate /proc/stat line's idle (with iowait)
# and steal ticks, and this shell's waited-for children's ticks (its own
# /proc/<pid>/stat), all read with builtins so that reading them starts no
# process. Busy time is what the uptime leaves beside idle: the kernel
# measures idle exactly but samples the busy states on the tick, which
# misses the short bursts of a paced run and would count them nowhere.
ticks() {
	local up _cpu user nice sys idle iow steal _rest st
	read -r up _rest </proc/uptime
	read -r _cpu user nice sys idle iow _ _ steal _rest </proc/stat
	read -r -a st <"/proc/$$/stat"
	echo "$((10#${up/./} * hz / 100)) $((idle + iow)) $steal $((st[15] + st[16]))"
}
hz=$(getconf CLK_TCK)
ncpu=$(grep -c '^cpu[0-9]' /proc/stat)

if [ "${1:-}" = "--report" ]; then
	[ $# -eq 2 ] || usage
	report "$2"
	exit 0
fi
[ $# -ge 4 ] || usage
parent_rev="$1" change_rev="$2" workload="$3"
shift 3
parent=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
change=$(git -C "$root" rev-parse --verify "$change_rev^{commit}")

# The go tool keeps its cache and its own files under $ab, as run.sh does
# under .bench_build.
mkdir -p "$ab/home"
export GOCACHE="$ab/gocache" GOPATH="$ab/gopath" HOME="$ab/home"
export XDG_CONFIG_HOME="$ab/home/.config" XDG_CACHE_HOME="$ab/home/.cache"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

pwt=$(checkout "$parent_rev" "$parent")
cwt=$(checkout "$change_rev" "$change")
wflag=()
if [ "$workload" != all ]; then
	wflag=(--workload "$workload")
fi

dir="$ab/runs/${parent:0:12}-${change:0:12}-$workload-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$dir"
cp "$pwt/BENCHMARK.json" "$dir/BENCHMARK.json"
: >"$dir/runs.tsv"
: >"$dir/host.tsv"
echo "ab: parent $parent_rev (${parent:0:12}), change $change_rev (${change:0:12}), $workload, seeds $*; runs in $dir" >&2

pair=0
for seed in "$@"; do
	pair=$((pair + 1))
	sides=(parent change)
	if [ $((pair % 2)) -eq 0 ]; then
		sides=(change parent)
	fi
	for side in "${sides[@]}"; do
		if [ "$side" = parent ]; then wt=$pwt sha=$parent; else wt=$cwt sha=$change; fi
		file="$side-s$seed.json"
		echo "ab: pair $pair, seed $seed, $side" >&2
		read -r u0 i0 s0 c0 <<<"$(ticks)"
		if bench "$wt" "$sha" "${wflag[@]}" --trace 0 --seed "$seed" --out "$dir/$file" >"$dir/$side-s$seed.log" 2>&1; then
			read -r u1 i1 s1 c1 <<<"$(ticks)"
			total=$(((u1 - u0) * ncpu))
			printf '%d\t%s\t%s\t%s\n' "$pair" "$side" "$seed" "$file" >>"$dir/runs.tsv"
			printf '%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n' "$pair" "$side" "$seed" \
				"$total" $((total - (i1 - i0))) $((s1 - s0)) $((c1 - c0)) "$ncpu" >>"$dir/host.tsv"
		else
			echo "ab: the $side run of seed $seed failed; see $dir/$side-s$seed.log" >&2
		fi
	done
done
report "$dir"
