#!/usr/bin/env sh
# Allocation regression gate for the zero-copy wire path: the round-trip
# transaction benchmark must stay at or under the allocs/op budget. It
# runs at exactly 2 (the per-call option closure and the one deliberate
# reply-data copy at the API boundary) — and that is WITH the obs
# instrumentation live on the serving path: the benchmark cluster wires
# ServerStats into every service, so this gate also proves that metrics
# counters, latency histograms and the access-log ring add zero
# allocations per request. CI fails the build past the budget.
#
# A second gate pins the lease-cached path lookup (E24) at ZERO
# allocs/op: a cache-hit walk of any depth must never touch the heap —
# the whole point of serving lookups locally is that the hot path costs
# nanoseconds, and one stray allocation is how that erodes.
#
# A third gate pins one replicated commit on a 3-replica group
# (E18_DirEnter/group3: the client round trip, the WAL append, one ship
# frame to each of two standbys sent from the committing goroutine,
# both acks) at 24 allocs/op. It stood at 43 while the sink started a
# goroutine per peer per batch and copied the peer list under a lock
# three times per op, at 32 while every commit on each of the three
# logs copied the staging buffer and allocated a tail block (and the
# primary's ticket carried a Flush method value), and at 25 while each
# standby's frames went through its own ship lane; the ship round's
# flights and timer are pooled, and the one allocation the write path
# added since — the handler's note of its own record, which lets a
# committed write skip the durability barrier — fits inside what the
# lanes cost. A new allocation on the ship or commit path is how any of
# it comes back.
#
# A fourth gate pins the same round trip over loopback TCP
# (E11_TransTCP) at 2 allocs/op: the transport under the F-box may add
# nothing to what the SimNet round trip allocates. It stood at 4 while
# the read loop's header array escaped to the heap once per frame.
#
# A fifth gate pins the capability check answered by the table's
# validation memo (BenchmarkTableDemand/memo-hit) at ZERO allocs/op:
# the check every server runs on every request must stay a lookup and
# a comparison.
#
# Usage: scripts/allocgate.sh   # budgets 2 / 0 / 24 / 2 / 0, fixed here
set -eu

cd "$(dirname "$0")/.."

# gate BENCH BUDGET WHAT: run one benchmark, fail past its allocs/op budget.
gate() {
	out=$(go test -run '^$' -bench "$1\$" -benchmem -benchtime 2000x .)
	echo "$out"
	allocs=$(echo "$out" | awk '/^Benchmark/ {
		for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i-1)
	}')
	if [ -z "$allocs" ]; then
		echo "allocgate: could not parse allocs/op from $1 output" >&2
		exit 1
	fi
	if [ "$allocs" -gt "$2" ]; then
		echo "allocgate: $1 at ${allocs} allocs/op exceeds budget $2" >&2
		exit 1
	fi
	echo "allocgate: ok — $3 at ${allocs} allocs/op (budget $2)"
}

gate BenchmarkE11_TransSimnet 2 "round trip"
gate BenchmarkE24_CachedDirLookup/depth=16 0 "cached lookup"
gate BenchmarkE18_DirEnter/group3 24 "group commit"
gate BenchmarkE11_TransTCP 2 "TCP round trip"
gate BenchmarkTableDemand/memo-hit 0 "memo-hit capability check"
