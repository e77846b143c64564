#!/usr/bin/env sh
# The structural guards: one row per design decision that a grep or an
# awk can hold, each a mechanism that was deleted and must not come
# back. A row is its name, the PR that added it (its CHANGES.md entry
# says why), a one-line reason, a check (NAME_check: prints what it
# finds, fails on a violation) and a plant (NAME_plant: one edit to one
# file that the check must catch).
#
# Usage:
#   scripts/guards.sh          run every check on the tree
#   scripts/guards.sh plants   in a copy of the tree, apply each row's plant
#                              in turn and fail unless each check goes red
#                              on it (and is green without it)
#
# A new guard is a new row, and it needs a plant: a check that no edit
# turns red guards nothing.
set -eu

cd "$(dirname "$0")/.."

rows=''
row() { # NAME PR REASON
	rows="$rows $1"
	eval "pr_$1=\$2 why_$1=\$3"
}

# none GREP-ARGS: red if grep finds anything, or cannot read a file.
none() {
	rc=0
	grep -n "$@" || rc=$?
	[ "$rc" -eq 1 ]
}

# empty TEXT: red, printing TEXT, unless TEXT is empty.
empty() {
	[ -z "$1" ] || { printf '%s\n' "$1"; return 1; }
}

# insert FILE ANCHOR TEXT: the plant that puts TEXT on the line after
# the first line matching the ERE ANCHOR (after the last line if ANCHOR
# is empty).
insert() {
	planted=$1
	cp "$1" "$saved"
	awk -v re="$2" -v text="$3" '
		{ print }
		!done && re != "" && $0 ~ re { print text; done = 1 }
		END { if (re == "") print text; else if (!done) exit 1 }
	' "$saved" > "$1" || { echo "guards: plant anchor /$2/ not in $1" >&2; return 1; }
}

# edit FILE SED-SCRIPT: the plant that rewrites FILE with sed.
edit() {
	planted=$1
	cp "$1" "$saved"
	sed "$2" "$saved" > "$1"
}

row pool_resize 30 'The worker pool is rpc.ServerConfig.MaxInflight, fixed at construction: a SetMaxInflight is the live resize coming back.'
pool_resize_check() { none -r --include='*.go' --exclude='*_test.go' 'SetMaxInflight' .; }
pool_resize_plant() { insert internal/rpc/server.go '' 'func (s *Server) SetMaxInflight(n int) { s.maxInflight = n }'; }

row pool_knob 30 'A MaxInflight in ClusterConfig or node.Env is the knob chain nobody set coming back.'
pool_knob_check() {
	awk '
		/^type (ClusterConfig|Env) struct/ { typ = $2; seen++ }
		/^}/ { typ = "" }
		typ != "" && /MaxInflight/ { print FILENAME ":" FNR ": MaxInflight in " typ; bad = 1 }
		END { if (seen != 2) { print "ClusterConfig or Env not found"; bad = 1 } exit bad }
	' cluster.go internal/node/node.go
}
pool_knob_plant() { insert cluster.go '^type ClusterConfig struct' '	MaxInflight int'; }

row batch_fanout 30 'A batch occupies one worker: a send on s.work inside serveBatch is the sub-request fan-out coming back.'
batch_fanout_check() {
	awk '
		/^func \(s \*Server\) serveBatch\(/ { fn = 1; seen = 1 }
		/^}/ { fn = 0 }
		fn && /s\.work[[:space:]]*<-/ { print FILENAME ":" FNR ": a send on s.work in serveBatch"; bad = 1 }
		END { if (!seen) { print "serveBatch not found"; bad = 1 } exit bad }
	' internal/rpc/server.go
}
batch_fanout_plant() { insert internal/rpc/server.go '^func \(s \*Server\) serveBatch\(' '	s.work <- job{}'; }

row pool_wait 40 'Drain, Quiesce and Close wait by holding every worker, a wait a synctest bubble sees: a WaitGroup or an RWMutex in server.go is a second way to wait.'
pool_wait_check() { none -E 'sync\.(WaitGroup|RWMutex)' internal/rpc/server.go; }
pool_wait_plant() { insert internal/rpc/server.go '^type Server struct' '	inflight sync.WaitGroup'; }

row shared_pool 40 'A package-level sync.Pool in rpc, repl or fbox shares timers and channels across machines, and one warmed outside a bubble hangs an RPC inside it.'
shared_pool_check() {
	awk '
		/^var \($/ { blk = 1; next }
		blk && /^\)/ { blk = 0 }
		(blk || /^var /) && /sync\.Pool/ { print FILENAME ":" FNR ": a package-level pool"; bad = 1 }
		END { exit bad }
	' $(ls internal/rpc/*.go internal/repl/*.go internal/fbox/*.go | grep -v '_test\.go$')
}
shared_pool_plant() { insert internal/repl/shipper.go '' 'var rounds = sync.Pool{New: func() any { return new(round) }}'; }

row bare_time 31 'Every timer, deadline and timestamp in internal/ reads its machine clock (NIC.Clock), so a test can skew it; only the TCP sockets and rpc remainingBudget (a context deadline) use package time.'
bare_time_check() {
	empty "$(grep -rnE --include='*.go' --exclude='*_test.go' 'time\.(Now|Since|Until|After|AfterFunc|NewTimer|NewTicker|Tick|Sleep)\b' internal |
		grep -v -e '^internal/clock/' -e '^internal/amnet/tcp\.go:' -e '^internal/rpc/client\.go:[0-9]*:.*:= time\.Until(dl); left > 0 {$')"
}
bare_time_plant() { insert internal/repl/lease.go '^func \(d \*Detector\) Start\(' '	time.Sleep(d.gap)'; }

row clock_real 31 'Only the transports, the WAL sync histogram and the access-log ring time real work and may name clock.Real.'
clock_real_check() {
	empty "$(grep -rn --include='*.go' --exclude='*_test.go' 'clock\.Real' . |
		grep -v -e '^\./internal/clock/' -e '^\./internal/amnet/' -e '^\./internal/wal/' -e '^\./internal/obs/')"
}
clock_real_plant() { insert internal/repl/lease.go '^func NewDetector\(' '	clk := clock.Real'; }

row clock_hooks 31 'The per-component clock hooks the machine clock replaced (Receiver.SetClock, repl.Options.Now, lease Cache.Now, the detector and resolver now) stay gone.'
clock_hooks_check() { none -rE --include='*.go' 'SetClock|Now func|Now:' internal/repl internal/lease internal/locate; }
clock_hooks_plant() { insert internal/lease/cache.go '^type Cache struct' '	Now func() time.Time'; }

row wall_lease 39 'Lease windows and grants are clock.Mono readings: a UnixNano stamp or a time.Unix rebuild is a lease a wall-clock step can stretch.'
wall_lease_check() { none -rE --include='*.go' --exclude='*_test.go' 'UnixNano\(\)|time\.Unix\(' internal/lease internal/repl; }
wall_lease_plant() { insert internal/lease/cache.go '^func \(ca \*Cache\) Get\(' '	now = time.Now().UnixNano()'; }

row one_checker 34 'Acked implies survives is checked once, by the servertest history checker: a conservation block, an "entry lost" check or a refusal swallowed by its text is a second, weaker checker.'
one_checker_check() {
	none -F -e 'money not conserved' -e 'entry %q lost' -e 'strings.Contains(err.Error(), "exists")' ./*_test.go
}
one_checker_plant() { insert soak_test.go '' 'func conserved(t *testing.T, got, want int) { if got != want { t.Fatalf("money not conserved: %d != %d", got, want) } }'; }

row detector_poll 35 'A standby detector re-arms for the first instant past the silence gap: a fixed gap/4 poll in lease.go is the poll delay coming back.'
detector_poll_check() { none -E 'gap[[:space:]]*/[[:space:]]*4' internal/repl/lease.go; }
detector_poll_plant() { insert internal/repl/lease.go '^func \(d \*Detector\) Start\(' '	poll := d.gap / 4'; }

row ship_no_go 15 'A commit batch ships from the goroutine that commits it: a go statement in the functions a ship round runs through is the goroutine-per-batch fan-out.'
ship_no_go_check() {
	awk '
		/^func \(s \*Shipper\) (sink|join|ship|launch|routed|step|land|book|failed|finish|heartbeat)\(/ { fn = $4; seen = 1 }
		/^}/ { fn = "" }
		fn != "" && /^[[:space:]]*go[[:space:]]/ { print FILENAME ":" FNR ": go statement in " fn; bad = 1 }
		END { if (!seen) { print "no ship-round function found"; bad = 1 } exit bad }
	' internal/repl/shipper.go
}
ship_no_go_plant() { insert internal/repl/shipper.go '^func \(s \*Shipper\) ship\(' '	go s.heartbeat()'; }

row channel_waits 38 'A sync.WaitGroup in shipper.go or a commitMu in wal.go is a wait that is not a channel operation: a lane countdown, or a commit lock a committed waiter cannot leave.'
channel_waits_check() { none -E 'sync\.WaitGroup|commitMu' internal/repl/shipper.go internal/wal/wal.go; }
channel_waits_plant() { insert internal/wal/wal.go '^type Log struct' '	commitMu sync.Mutex'; }

row wal_no_go 28 'A WAL batch commits on the goroutine that waits for it: a go statement in wal.go outside the wedge callbacks is the committer goroutine coming back.'
wal_no_go_check() {
	awk '
		/^func / { fn = $0 }
		/^}/ { fn = "" }
		/^[[:space:]]*go[[:space:]]/ && fn !~ /^func \(l \*Log\) (wedge|OnWedge)\(/ { print FILENAME ":" FNR ": go statement outside the wedge callbacks"; bad = 1 }
		END { exit bad }
	' internal/wal/wal.go
}
wal_no_go_plant() { insert internal/wal/wal.go '^func \(l \*Log\) Append\(' '	go l.flush()'; }

row one_stream_entry 21 'There is one way onto the replication stream, Shipper.join: a log scan or a catch-up path beside it is a second one.'
one_stream_entry_check() { none -rE 'ReadFrom\(|catchUp' internal/repl internal/svc internal/wal; }
one_stream_entry_plant() { insert internal/repl/stream.go '' 'func (s *Shipper) catchUp(p *peer) error { return nil }'; }

row fbox_no_pump 26 'The F-box runs on the goroutine that carried the frame: a go statement or a read of the NIC Recv queue in it is the receive pump, and its extra hop per frame.'
fbox_no_pump_check() { none -E '^[[:space:]]*go[[:space:]]|\.Recv\(\)' $(ls internal/fbox/*.go | grep -v '_test\.go$'); }
fbox_no_pump_plant() { insert internal/fbox/fbox.go '^func New\(' '	go fb.pump(nic.Recv())'; }

row no_retired 23 'A group is its fixed slots, with no side list of machines that left.'
no_retired_check() { none 'retired' cluster.go shards.go; }
no_retired_plant() { insert cluster.go '^type Cluster struct' '	retired []amnet.MachineID'; }

row one_constructor 23 'Each service and each replica part is built in one place, the internal/node table: a second call of its constructor is a second assembly path.'
one_constructor_check() {
	for ctor in 'memsvr.New(' 'blocksvr.New(' 'flatfs.New(' 'mvfs.New(' 'dirsvr.NewDurable(' 'banksvr.NewDurable(' \
		'repl.NewReceiver(' 'repl.AttachGroup(' 'repl.NewDetector(' 'wal.Open(' 'vdisk.NewFaultStore('; do
		n=$(grep -rF --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=examples -- "$ctor" . | wc -l)
		[ "$n" -eq 1 ] || { echo "$ctor is called from $n places, want 1"; return 1; }
	done
}
one_constructor_plant() { insert shards.go '^func \(cl \*Cluster\) allShards\(' '	_ = memsvr.New(nil)'; }

row node_builds_replicas 33 'A replica (its WAL over a fault injector, receiver, shipper and detector) is assembled by node.Replica only.'
node_builds_replicas_check() {
	for ctor in 'repl.NewReceiver(' 'repl.AttachGroup(' 'repl.NewDetector(' 'wal.Open(' 'vdisk.NewFaultStore('; do
		empty "$(grep -rlF --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=examples -- "$ctor" . | grep -v '^\./internal/node/')" || return 1
	done
}
node_builds_replicas_plant() { insert cluster.go '^func \(cl \*Cluster\) Restart\(' '	det := repl.NewDetector(r, cl.cfg.Lease, nil)'; }

row no_assembly_helpers 33 'The root package keeps no replica assembly helpers and no side map of fault injectors.'
no_assembly_helpers_check() { none -E 'buildReplica|buildStandby|attachShipper|openWAL|walFaults' cluster.go shards.go; }
no_assembly_helpers_plant() { insert shards.go '' 'func (cl *Cluster) buildReplica(m amnet.MachineID) *replica { return nil }'; }

row repeat_names_test 35 'CI repeats TestStandbyWedgeDropsFromQuorum 20 times by name, and a -run pattern that names no test passes.'
repeat_names_test_check() {
	go test -list '^TestStandbyWedgeDropsFromQuorum$' . | grep -qx 'TestStandbyWedgeDropsFromQuorum'
}
repeat_names_test_plant() { edit gray_failure_test.go 's/^func TestStandbyWedgeDropsFromQuorum(/func TestStandbyWedgeLeavesQuorum(/'; }

row bubble_waits 45 'The soaks run in synctest bubbles, where a goroutine waiting on a sync.Mutex or a sync.WaitGroup is not durably blocked and the clock never moves: Cluster.lifeMu and the workload phases wait by channel.'
bubble_waits_check() { none -E 'lifeMu[[:space:]]+sync\.Mutex' cluster.go && none 'sync\.WaitGroup' workload_test.go; }
bubble_waits_plant() { insert cluster.go '^type Cluster struct' '	lifeMu sync.Mutex'; }

why() { eval "echo \"guards: $1 (PR \$pr_$1): \$why_$1\""; }

case "${1:-check}" in
check)
	bad=0
	for r in $rows; do
		if ! "${r}_check"; then
			why "$r" >&2
			bad=1
		fi
	done
	[ "$bad" -eq 0 ] && echo "guards: ok — $(echo $rows | wc -w) rows"
	exit "$bad"
	;;
plants)
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	saved=$tmp/saved
	mkdir "$tmp/tree"
	tar -cf - --exclude=./.git --exclude=./.bench_build . | (cd "$tmp/tree" && tar -xf -)
	cd "$tmp/tree"
	bad=0
	for r in $rows; do
		if ! "${r}_check" > /dev/null 2>&1; then
			echo "guards: $r is red with no plant" >&2
			bad=1
		elif ! "${r}_plant"; then
			bad=1
		elif "${r}_check" > /dev/null 2>&1; then
			echo "guards: $r stayed green on its plant in $planted" >&2
			bad=1
		else
			echo "guards: $r went red on its plant in $planted"
		fi
		[ -z "${planted:-}" ] || cp "$saved" "$planted"
		planted=''
	done
	[ "$bad" -eq 0 ] && echo "guards: ok — every row went red on its plant"
	exit "$bad"
	;;
*)
	echo "usage: scripts/guards.sh [plants]" >&2
	exit 2
	;;
esac
