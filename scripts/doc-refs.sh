#!/usr/bin/env sh
# A test or benchmark named in the docs that no longer exists is a
# pointer to nothing: a reader looks for the number's source, or for the
# test that asserts a claim, and finds neither. This lists every test,
# benchmark and fuzz target in every package outside bench/ with
# `go test -list`, pulls each Benchmark…, Test… or Fuzz… name out of the
# backticked text of README.md and EXPERIMENTS.md (inline spans and
# fenced blocks), and fails unless each is the prefix of a listed name.
# A prefix is enough, so -run patterns such as `TestChaos` and
# `TestStream*` pass.
#
# Usage: scripts/doc-refs.sh
set -eu

cd "$(dirname "$0")/.."

# shellcheck disable=SC2046 # one argument per package
listed=$(go test -list '.*' $(go list ./... | grep -v '^amoeba/bench$') |
	grep -E '^(Test|Benchmark|Fuzz|Example)')
# Tests behind the synctest experiment are listed with it on.
synctest_pkgs=$(grep -rl --include='*_test.go' --exclude-dir=bench '^//go:build goexperiment.synctest' . |
	xargs -r -n1 dirname | sort -u)
if [ -n "$synctest_pkgs" ]; then
	# shellcheck disable=SC2086 # one argument per package
	listed="$listed
$(GOEXPERIMENT=synctest go test -list '.*' $synctest_pkgs | grep -E '^(Test|Benchmark|Fuzz|Example)')"
fi

# backticked FILE: the text of every backticked span, one per line.
backticked() {
	awk '
		/^[ \t]*```/ { fence = !fence; next }
		fence { print; next }
		{ text = text " " $0 }
		END {
			while (match(text, /`[^`]+`/)) {
				print substr(text, RSTART + 1, RLENGTH - 2)
				text = substr(text, RSTART + RLENGTH)
			}
		}
	' "$1"
}

bad=0
for doc in README.md EXPERIMENTS.md; do
	names=$(backticked "$doc" | grep -oE '\b(Benchmark|Test|Fuzz)[A-Z0-9_][A-Za-z0-9_]*' | sort -u || true)
	for name in $names; do
		if ! printf '%s\n' "$listed" | grep -q "^$name"; then
			echo "doc-refs: $doc names \`$name\`, the prefix of no test, benchmark or fuzz target" >&2
			bad=1
		fi
	done
done

[ "$bad" -eq 0 ] && echo "doc-refs: ok — every test and benchmark README.md and EXPERIMENTS.md name exists"
exit "$bad"
