// Package obs is the production serving surface's instrumentation
// core: lock-free counters, gauges and fixed-bucket histograms with
// near-zero hot-path cost, a registry that exports them in Prometheus
// text and expvar JSON formats, a fixed-size lock-free ring of recent
// request records (the access log), and the opcode→name table every
// exporter labels with.
//
// Design rules, in order:
//
//   - The hot path (one request through rpc.Server) touches only
//     atomics: no locks, no maps written, no allocations. The alloc
//     gate in CI pins the instrumented round trip at the same
//     allocs/op as the uninstrumented one.
//   - Names are resolved at EXPORT time, never on the hot path:
//     metrics are registered once at server start, and the access log
//     stores numeric opcodes that the dump renders through OpName.
//   - Registration is idempotent: a restarted service re-registers the
//     same (name, labels) family and gets the SAME metric back, so
//     counters survive a Kill/Restart cycle the way an external
//     scraper expects them to (monotonic, no reset to zero).
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count. The zero value is ready
// to use; all methods are safe for concurrent use and lock-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, bytes in use). The
// zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistBuckets is the number of histogram buckets: bucket i counts
// observations v with 2^(i-1) ≤ v < 2^i (bucket 0 counts v < 1, the
// last bucket is the overflow). Power-of-two bounds make Observe one
// bits.Len64 — no search, no branches worth naming — and still give
// latency quantiles accurate to within 2×, which is what a fixed-cost
// histogram can promise.
const HistBuckets = 40

// Histogram is a fixed-bucket histogram of non-negative integer
// observations (nanoseconds for latencies, counts for batch sizes).
// The zero value is ready to use; Observe is lock-free and
// allocation-free.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := bits.Len64(v) // 0 for v==0, else floor(log2(v))+1
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a latency in nanoseconds (negative clamps
// to zero, so a clock step cannot corrupt the buckets).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1) of
// the observed values: the upper bound of the bucket the quantile
// falls in, accurate to within the bucket's 2× width. Returns 0 with
// no observations. Export-path only (it scans the buckets).
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := 0; i < HistBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			return bucketBound(i)
		}
	}
	return bucketBound(HistBuckets - 1)
}

// bucketBound returns bucket i's exclusive upper bound.
func bucketBound(i int) uint64 {
	if i == 0 {
		return 1
	}
	if i >= 63 {
		return ^uint64(0)
	}
	return 1 << uint(i)
}

// kind discriminates the registry's metric families.
type kind uint8

const (
	kindCounter kind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered time series.
type metric struct {
	name   string // Prometheus family name
	labels string // rendered `k="v",k="v"` or ""
	help   string
	kind   kind
	c      *Counter
	g      *Gauge
	cf     func() uint64
	gf     func() float64
	h      *Histogram
}

func (m *metric) series() string {
	if m.labels == "" {
		return m.name
	}
	return m.name + "{" + m.labels + "}"
}

// Registry holds named metrics and renders them for scrapers. Metrics
// register once (at service start); the hot path never touches the
// registry. Registration is idempotent on (name, labels): a restarted
// service gets its previous incarnation's metric back.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric // series key → metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// L renders label pairs for registration: L("service", "dir", "op",
// "enter") → `service="dir",op="enter"`. Values are escaped per the
// Prometheus exposition format.
func L(pairs ...string) string {
	if len(pairs)%2 != 0 {
		panic("obs: L wants key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(pairs[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register finds or creates the (name, labels) series.
func (r *Registry) register(name, labels, help string, k kind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + "{" + labels + "}"
	if m, ok := r.index[key]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("obs: %s re-registered as a different kind", key))
		}
		return m
	}
	m := &metric{name: name, labels: labels, help: help, kind: k}
	switch k {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		m.h = &Histogram{}
	}
	r.metrics = append(r.metrics, m)
	r.index[key] = m
	return m
}

// Counter returns the counter registered under (name, labels),
// creating it on first use.
func (r *Registry) Counter(name, labels, help string) *Counter {
	return r.register(name, labels, help, kindCounter).c
}

// CounterFunc registers fn as a counter evaluated at scrape time, for
// a total someone else already keeps (the TCP transport's frame and
// syscall counts). Re-registering the same series replaces the
// function, as with GaugeFunc.
func (r *Registry) CounterFunc(name, labels, help string, fn func() uint64) {
	m := r.register(name, labels, help, kindCounterFunc)
	r.mu.Lock()
	m.cf = fn
	r.mu.Unlock()
}

// Gauge returns the gauge registered under (name, labels).
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	return r.register(name, labels, help, kindGauge).g
}

// GaugeFunc registers fn as a gauge evaluated at scrape time — the
// zero-hot-path-cost way to export a level someone else already
// maintains (queue depth, ship lag, WAL bytes). Re-registering the
// same series replaces the function (a restarted service points the
// gauge at its new incarnation).
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	m := r.register(name, labels, help, kindGaugeFunc)
	r.mu.Lock()
	m.gf = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under (name, labels).
func (r *Registry) Histogram(name, labels, help string) *Histogram {
	return r.register(name, labels, help, kindHistogram).h
}

// snapshot copies the metric list for lock-free rendering.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.metrics...)
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (families sorted by name, one TYPE line per
// family). Histograms render as native _bucket/_sum/_count series
// with power-of-two le bounds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ms := r.snapshot()
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	var lastFamily string
	for _, m := range ms {
		if m.name != lastFamily {
			typ := "counter"
			switch m.kind {
			case kindGauge, kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, typ); err != nil {
				return err
			}
			lastFamily = m.name
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", m.series(), m.c.Value())
		case kindCounterFunc:
			_, err = fmt.Fprintf(w, "%s %d\n", m.series(), m.cf())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", m.series(), m.g.Value())
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s %g\n", m.series(), m.gf())
		case kindHistogram:
			err = writePromHistogram(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, m *metric) error {
	sep := ""
	if m.labels != "" {
		sep = ","
	}
	var cum uint64
	for i := 0; i < HistBuckets; i++ {
		cum += m.h.buckets[i].Load()
		bound := fmt.Sprintf("%d", bucketBound(i))
		if i == HistBuckets-1 {
			bound = "+Inf"
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", m.name, m.labels, sep, bound, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum{%s} %d\n", m.name, m.labels, m.h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count{%s} %d\n", m.name, m.labels, m.h.Count())
	return err
}

// WriteJSON renders the registry as one JSON object keyed by series
// (the expvar-compatible view; histograms render count/sum/p50/p99).
func (r *Registry) WriteJSON(w io.Writer) error {
	ms := r.snapshot()
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].series() < ms[j].series() })
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, m := range ms {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%q: %d", m.series(), m.c.Value())
		case kindCounterFunc:
			_, err = fmt.Fprintf(w, "%q: %d", m.series(), m.cf())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%q: %d", m.series(), m.g.Value())
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%q: %g", m.series(), m.gf())
		case kindHistogram:
			_, err = fmt.Fprintf(w, "%q: {\"count\": %d, \"sum\": %d, \"p50\": %d, \"p99\": %d}",
				m.series(), m.h.Count(), m.h.Sum(), m.h.Quantile(0.50), m.h.Quantile(0.99))
		}
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}")
	return err
}
