package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amoeba"
	"amoeba/internal/amnet"
)

// errWrong marks an operation that completed but returned the wrong
// answer (a capability other than the one recorded at populate time, a
// file block whose checksum differs from the last acknowledged write).
// It fails the run, where an ordinary error only counts as a failed op.
var errWrong = errors.New("wrong output")

// opKind names one kind of client operation: the span it is traced
// under and, where the issue defines one, the per-layer metric its
// median feeds (scaled from nanoseconds by perUnit).
type opKind struct {
	span    string
	metric  string
	perUnit float64
}

// A rig is a booted, populated system plus the workload's operations
// against it. Everything the load loops and the report need from a
// workload goes through this struct, so the TCP and SimNet workloads
// run under the same loop.
type rig struct {
	kinds []opKind
	// op performs one blocking operation for client c and returns its
	// kind. It keeps the workload's model of acknowledged state.
	op func(c int, rng *rand.Rand) (kind int, err error)
	// check reads the final state back and returns how many
	// acknowledged effects are missing or unacknowledged ones present.
	check func() (lost int, err error)
	// trees are the populated directory trees the workload walks, with
	// the answer each walk is checked against.
	trees []*tree
	// scrape reads the program's exported counters.
	scrape func() (promSnap, error)
	// broadcasts returns how many LOCATE rounds the clients have sent.
	broadcasts func() uint64
	net        *amnet.SimNet   // nil on TCP
	cluster    *amoeba.Cluster // nil on TCP
	// primary is the directory primary as sim_failover last saw it.
	primary amoeba.MachineID
	tcp     *tcpCluster // nil on SimNet
	pids    []int       // amoebad children
	// alive fails if a child has exited.
	alive func() error
	close func()
}

// loadClients is the closed loop's width: one blocking caller per core
// of the two-core sandbox, from a single generator process.
const loadClients = 2

type client struct {
	id  int
	rng *rand.Rand
	seq uint32
}

func newClients(seed uint64) []*client {
	cs := make([]*client, loadClients)
	for i := range cs {
		cs[i] = &client{id: i, rng: rand.New(rand.NewSource(int64(seed*1000003) + int64(i)))}
	}
	return cs
}

// segments is how many times a measured run boots the system afresh:
// the window is shared equally between that many boots, each with its
// own set-up, warm-up, measured segment and read-back. Set-up time is
// the median of the ten; each timing metric is the mean of the better
// half of the segments (bestHalf), because what a shared host does to a
// segment only ever slows it. Ten boots and not ten slices of one:
// set-up has to be measured several times a run, and a boot can settle
// into a pace of its own (tcp_small: 37 000 ops/s on some, 43 000 on
// others, same run).
const segments = 10

// tally is what one goroutine accumulates over one window.
type tally struct {
	lat hist // latencies of the operations answered in the window
	// untimed keeps this client's latencies out of lat (openLoop says why).
	untimed  bool
	byKind   []hist
	acked    uint64
	failed   uint64
	wrong    uint64
	firstErr error
	spans    *spanBuf
}

func (t *tally) record(kind int, err error, start, end int64, seq uint32) {
	if err != nil {
		t.failed++
		if errors.Is(err, errWrong) {
			t.wrong++
		}
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.acked++
	if !t.untimed {
		t.lat.add(end - start)
	}
	if t.byKind != nil {
		t.byKind[kind].add(end - start)
		t.spans.add(kind, seq, start, end)
	}
}

func (t *tally) merge(o *tally) {
	t.lat.merge(&o.lat)
	for i := range o.byKind {
		t.byKind[i].merge(&o.byKind[i])
	}
	t.acked += o.acked
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// window is one measured interval: what the clients saw, and what the
// process and the program's counters did between its two boundaries.
type window struct {
	name    string
	start   int64
	elapsed time.Duration
	tally
	bufs     []*spanBuf
	selfCPU  time.Duration
	totalCPU time.Duration // the generator and every child amoebad
	peakKB   float64
	// stolen is the share of the machine's CPU time during the window
	// that the host gave to someone else.
	stolen  float64
	mallocs uint64
	gcPause time.Duration
	prom    promSnap
	// LOCATE broadcasts the clients sent; SimNet frames sent and dropped
	// at a full receive queue.
	broadcasts, frames, overrun uint64
	lagMax                      float64
	lateMs                      float64 // how late the generator ran
	kill                        *killed // sim_failover only
}

// boundary is the state read at both ends of a window.
type boundary struct {
	self, total  procUsage
	steal, ticks uint64 // the machine's stolen and total CPU time
	mem          runtime.MemStats
	prom         promSnap
	broadcasts   uint64
	net          amnet.Stats
}

func (r *rig) boundary(traced bool) (boundary, error) {
	var b boundary
	var err error
	if b.self, b.total, err = usage(r.pids); err != nil {
		return b, err
	}
	if b.steal, b.ticks, err = cpuTicks(); err != nil {
		return b, err
	}
	if !traced {
		return b, nil
	}
	runtime.ReadMemStats(&b.mem)
	if b.prom, err = r.scrape(); err != nil {
		return b, err
	}
	b.broadcasts = r.broadcasts()
	if r.net != nil {
		b.net = r.net.Stats()
	}
	return b, nil
}

func (w *window) between(a, b boundary) {
	w.selfCPU = b.self.cpu - a.self.cpu
	w.totalCPU = b.total.cpu - a.total.cpu
	w.peakKB = b.total.hwmKB
	if b.ticks > a.ticks {
		w.stolen = float64(b.steal-a.steal) / float64(b.ticks-a.ticks)
	}
	w.mallocs = b.mem.Mallocs - a.mem.Mallocs
	w.gcPause = time.Duration(b.mem.PauseTotalNs - a.mem.PauseTotalNs)
	if b.prom != nil {
		w.prom = b.prom.sub(a.prom)
	}
	w.broadcasts = b.broadcasts - a.broadcasts
	w.frames = b.net.Sent - a.net.Sent
	w.overrun = b.net.Overrun - a.net.Overrun
}

// newWindow prepares a window and one tally per client.
func newWindow(r *rig, name string, cs []*client, traced bool) (*window, []*tally) {
	w := &window{name: name}
	tallies := make([]*tally, len(cs))
	for i, c := range cs {
		t := &tally{}
		if traced {
			t.byKind = make([]hist, len(r.kinds))
			t.spans = newSpanBuf(c.id, name, spanNames(r.kinds))
			w.bufs = append(w.bufs, t.spans)
		}
		tallies[i] = t
	}
	if traced {
		w.byKind = make([]hist, len(r.kinds))
	}
	return w, tallies
}

// collect folds the clients' tallies into the window.
func (w *window) collect(tallies []*tally) {
	for _, t := range tallies {
		w.merge(t)
	}
}

// quantileUs is the window's q-quantile latency, in microseconds.
func (w *window) quantileUs(q float64) float64 { return w.lat.quantile(q) / us }

func (w *window) opsPerSecond() float64 { return float64(w.acked) / w.elapsed.Seconds() }

// cpuPerOpUs is the CPU time all processes spent during the window per
// operation answered in it, in microseconds.
func (w *window) cpuPerOpUs() float64 { return float64(w.totalCPU) / us / float64(w.acked) }

// closedLoop runs every client back to back for d: each sends its next
// operation only when the previous one has been answered. An operation
// still in flight when the window closes is not counted. With traced
// set, operations are also recorded per kind and as spans, and the
// counters are read at the same two boundaries.
func closedLoop(r *rig, name string, cs []*client, d time.Duration, traced bool) (*window, error) {
	w, tallies := newWindow(r, name, cs, traced)
	var lag lagSampler
	if traced && r.net != nil {
		lag.start(r)
	}
	before, err := r.boundary(traced)
	if err != nil {
		return nil, err
	}
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	w.start = now()
	for i, c := range cs {
		wg.Add(1)
		go func(c *client, t *tally) {
			defer wg.Done()
			for {
				c.seq++
				t0 := now()
				kind, err := r.op(c.id, c.rng)
				t1 := now()
				if stop.Load() {
					return
				}
				t.record(kind, err, t0, t1, c.seq)
			}
		}(c, tallies[i])
	}
	time.Sleep(d)
	stop.Store(true)
	w.elapsed = time.Duration(now() - w.start)
	after, err := r.boundary(traced)
	wg.Wait()
	w.lagMax = lag.stop()
	if err != nil {
		return nil, err
	}
	w.between(before, after)
	// A closed loop is never behind a schedule; what can run late is
	// the generator itself, which shows as the window timer overshooting.
	w.lateMs = float64(w.elapsed-d) / 1e6
	w.collect(tallies)
	if err := r.alive(); err != nil {
		return nil, err
	}
	return w, nil
}

func spanNames(kinds []opKind) []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.span
	}
	return names
}

// lagSampler polls the replication lag gauge during a traced window;
// a gauge has no history, so its peak has to be sampled.
type lagSampler struct {
	quit chan struct{}
	done chan float64
}

func (l *lagSampler) start(r *rig) {
	l.quit = make(chan struct{})
	l.done = make(chan float64, 1)
	go func() {
		var peak float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-l.quit:
				l.done <- peak
				return
			case <-tick.C:
				if snap, err := r.scrape(); err == nil {
					for k, v := range snap {
						if strings.HasPrefix(k, "amoeba_ship_lag_records") && v > peak {
							peak = v
						}
					}
				}
			}
		}
	}()
}

func (l *lagSampler) stop() float64 {
	if l.quit == nil {
		return 0
	}
	close(l.quit)
	return <-l.done
}

// failedOp wraps an operation's error, if any, with what was being done.
func failedOp(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}
