#!/usr/bin/env sh
# A `go test -run '<re>'` whose pattern matches nothing exits 0, so a CI
# step whose tests were renamed or deleted keeps passing — silently,
# testing nothing. This pulls every `-run '<re>' <pkgs>` pair out of the
# workflow (`-run '^$'`, which means to match nothing, aside) and fails
# unless `go test -list` finds a test for each alternative of each
# pattern in those packages — listed under the line's GOEXPERIMENT, if
# it sets one, since a test behind a build tag exists only there.
#
# Usage: scripts/ci-run-patterns.sh [workflow.yml]
set -eu

cd "$(dirname "$0")/.."
workflow="${1:-.github/workflows/ci.yml}"

# One line per pair: the pattern, a tab, the packages, a tab, the
# line's GOEXPERIMENT setting (possibly empty).
pairs=$(awk '
	/go test/ && /-run \047/ {
		env = ""
		if (match($0, /GOEXPERIMENT=[^ \t]+/)) env = substr($0, RSTART, RLENGTH)
		line = $0
		sub(/.*-run \047/, "", line)
		re = line; sub(/\047.*/, "", re)
		rest = line; sub(/[^\047]*\047/, "", rest)
		n = split(rest, tok, /[ \t]+/)
		pkgs = ""
		for (i = 1; i <= n; i++) if (tok[i] ~ /^\.(\/|$)/) pkgs = pkgs " " tok[i]
		if (re != "^$" && pkgs != "") print re "\t" pkgs "\t" env
	}
' "$workflow")

if [ -z "$pairs" ]; then
	echo "ci-run-patterns: found no -run patterns in $workflow" >&2
	exit 1
fi

bad=0
tab=$(printf '\t')
while IFS="$tab" read -r re pkgs env; do
	case "$re" in
	*\(*) alts="$re" ;;                  # grouped: check it whole
	*) alts=$(echo "$re" | tr '|' ' ') ;; # plain alternation: check each name
	esac
	for alt in $alts; do
		# shellcheck disable=SC2086 # pkgs is a list, env empty or one assignment
		names=$(env $env go test -list "$alt" $pkgs | grep -cEv '^(ok|\?)[ \t]' || true)
		if [ "$names" -eq 0 ]; then
			echo "ci-run-patterns: -run '$alt' names no test in$pkgs ($workflow)" >&2
			bad=1
		fi
	done
done <<EOF
$pairs
EOF

[ "$bad" -eq 0 ] && echo "ci-run-patterns: ok — every -run pattern in $workflow names a test"
exit "$bad"
