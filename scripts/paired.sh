#!/usr/bin/env bash
# Paired benchmark runs: a parent commit against the working tree,
# alternating which side runs first, one seed per pair, so that host
# drift lands on both sides of every comparison.
#
# Usage: PR=<n> [SEED=<s>] scripts/paired.sh <parent-ref> [workload[:pairs]...]
#
#   PR=$n SEED=8300 scripts/paired.sh HEAD sim_walk sim_failover tcp_small:5
#
# Each side's benchmark binary is built once: the parent's from the
# committed files of <parent-ref> (git archive, into a scratch
# directory), the change's from the working tree. Every run is
#   bench -workload W -seed S -seconds 20 -trace 0
# (the run length the benchmark is judged at), started in its own tree,
# so the TCP workloads build and run that tree's amoebad. A workload
# named without :pairs gets 10 pairs. Pair i of a workload uses seed
# SEED+i (SEED defaults to 9000; pick fresh seeds for an acceptance
# run); odd pairs run the parent first, even pairs the change.
#
# It writes benchmarks/paired/PR-<n>.md: for each workload
# and each end-to-end metric BENCHMARK.json declares, both medians with
# their quartiles, the change's difference, the pairs it won and the
# verdict against the metric's bound; then every run that was not
# correct or had failed > 0, and every run's result line. It exits
# non-zero if any run was not clean.
set -eu

if [ $# -lt 1 ]; then
	sed -n '2,/^set -eu/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
	exit 2
fi
cd "$(dirname "$0")/.."
root=$(pwd)
parent=$(git rev-parse --verify "$1^{commit}")
shift
out="benchmarks/paired/PR-${PR:?set PR, the change number}.md"
seed0=${SEED:-9000}
if [ $# -eq 0 ]; then
	set -- tcp_small tcp_file sim_write sim_walk sim_failover
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/parent" "$(dirname "$out")"
git archive "$parent" | tar -x -C "$work/parent"
echo "building bench: parent $(git rev-parse --short "$parent"), change = working tree" >&2
(cd "$work/parent" && go build -o "$work/bench.parent" ./bench)
go build -o "$work/bench.change" ./bench

runs="$work/runs.tsv" # workload, pair, seed, side, result line
: > "$runs"
run() { # side workload pair seed
	dir=$root
	if [ "$1" = parent ]; then dir=$work/parent; fi
	line=$(cd "$dir" && "$work/bench.$1" -workload "$2" -seed "$4" -seconds 20 -trace 0 2> /dev/null |
		grep '^{"correct"' | tail -n 1) || true
	printf '%s\t%s\t%s\t%s\t%s\n' "$2" "$3" "$4" "$1" "${line:-no result line}" >> "$runs"
	echo "$2 pair $3 seed $4 $1: ${line:-no result line}" | cut -c1-160 >&2
}
for spec in "$@"; do
	w=${spec%%:*}
	n=10
	case "$spec" in *:*) n=${spec#*:} ;; esac
	i=1
	while [ "$i" -le "$n" ]; do
		s=$((seed0 + i))
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$w" "$i" "$s"
			run change "$w" "$i" "$s"
		else
			run change "$w" "$i" "$s"
			run parent "$w" "$i" "$s"
		fi
		i=$((i + 1))
	done
done

# The end-to-end metrics, their direction and bound, from BENCHMARK.json.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
	on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }' BENCHMARK.json > "$work/metrics"

{
	echo "# Paired runs: $(git rev-parse --short "$parent") against the working tree"
	echo
	echo "\`bench -workload W -seed S -seconds 20 -trace 0\`, each side built once, odd pairs parent first; pair i uses seed $seed0+i."
	echo "Quartiles are the parent's and the change's own; Δ is the change's median against the parent's; won counts pairs where the change did better."
	echo "A metric whose parent quartile spread exceeds its bound is unresolved."
	awk -F'\t' -v metrics="$work/metrics" '
		BEGIN {
			while ((getline l < metrics) > 0) { split(l, f, " "); nm++; mname[nm] = f[1]; mbetter[f[1]] = f[2]; mbound[f[1]] = f[3] }
		}
		function val(line, m,   v) {
			if (!match(line, "\"" m "\":\\{\"value\":[^,}]*")) return ""
			v = substr(line, RSTART, RLENGTH); sub(/.*"value":/, "", v); return v + 0
		}
		function q(a, n, p,   i, j, x, pos, lo) { # p-quantile of a[1..n], linear interpolation
			for (i = 2; i <= n; i++) { x = a[i]; for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]; a[j + 1] = x }
			pos = 1 + (n - 1) * p; lo = int(pos)
			return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
		}
		function fmt(x) { return sprintf(x >= 1000 ? "%.0f" : x >= 10 ? "%.2f" : "%.4f", x) }
		{
			if (!($1 in seen)) { seen[$1] = 1; nw++; wl[nw] = $1 }
			if ($5 !~ /^\{"correct":true,/ || $5 !~ /"failed":0,/) bad[++nbad] = $1 " pair " $2 " seed " $3 " " $4 ": " substr($5, 1, 80)
			for (k = 1; k <= nm; k++) { m = mname[k]; if ((v = val($5, m)) != "") x[$1, m, $4, $2] = v }
			if ($2 > np[$1]) np[$1] = $2
		}
		END {
			for (w = 1; w <= nw; w++) {
				W = wl[w]
				print ""; print "## `" W "` (" np[W] " pairs)"; print ""
				print "| metric | parent median (q1–q3) | change median (q1–q3) | Δ | won | bound | verdict |"
				print "|---|---|---|---|---|---|---|"
				for (k = 1; k <= nm; k++) {
					m = mname[k]; n = 0; won = 0
					for (p = 1; p <= np[W]; p++) {
						if (!((W, m, "parent", p) in x) || !((W, m, "change", p) in x)) continue
						n++; a[n] = x[W, m, "parent", p]; b[n] = x[W, m, "change", p]
						if (mbetter[m] == "higher" ? b[n] > a[n] : b[n] < a[n]) won++
					}
					if (n == 0) continue
					pm = q(a, n, .5); p1 = q(a, n, .25); p3 = q(a, n, .75)
					cm = q(b, n, .5); c1 = q(b, n, .25); c3 = q(b, n, .75)
					d = pm != 0 ? (cm - pm) / pm : 0
					worse = mbetter[m] == "higher" ? -d : d
					verdict = worse <= mbound[m] ? "inside" : "OUTSIDE"
					if (pm != 0 && (p3 - p1) / pm > mbound[m]) verdict = verdict ", unresolved"
					printf "| `%s` | %s (%s–%s) | %s (%s–%s) | %+.1f %% | %d/%d | %g | %s |\n", m, fmt(pm), fmt(p1), fmt(p3), fmt(cm), fmt(c1), fmt(c3), 100 * d, won, n, mbound[m], verdict
				}
			}
			print ""; print "## Runs not clean"; print ""
			if (nbad == 0) print "None: every run was `correct:true` with `failed:0`."
			for (i = 1; i <= nbad; i++) print "- " bad[i]
			exit (nbad > 0)
		}' "$runs" && clean=1 || clean=0
	echo
	echo "## Result lines"
	echo
	echo '```'
	cat "$runs"
	echo '```'
} > "$out"
echo "wrote $out" >&2
[ "$clean" = 1 ]
