package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndQuantile(t *testing.T) {
	var h Histogram
	// 90 fast observations, 10 slow ones: p50 must land in the fast
	// band, p99 in the slow band (within the 2× bucket width).
	for i := 0; i < 90; i++ {
		h.Observe(1000) // ~1µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000) // ~1ms
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if got := h.Sum(); got != 90*1000+10*1_000_000 {
		t.Fatalf("Sum = %d", got)
	}
	p50 := h.Quantile(0.50)
	if p50 < 1000 || p50 > 4000 {
		t.Errorf("p50 = %d, want within 2x of 1000", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 1_000_000 || p99 > 4_000_000 {
		t.Errorf("p99 = %d, want within 2x of 1000000", p99)
	}
	// Overflow and zero observations stay in bounds.
	h.Observe(0)
	h.Observe(^uint64(0))
	if h.Count() != 102 {
		t.Fatalf("Count after edge observations = %d", h.Count())
	}
}

func TestHistogramNegativeDurationClamps(t *testing.T) {
	var h Histogram
	h.ObserveDuration(-time.Second)
	if h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("negative duration: count=%d sum=%d, want 1/0", h.Count(), h.Sum())
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("amoeba_test_total", L("service", "dir"), "help")
	c1.Add(7)
	// Re-registration (a restarted service) must return the same
	// counter so the count survives the restart.
	c2 := r.Counter("amoeba_test_total", L("service", "dir"), "help")
	if c1 != c2 {
		t.Fatal("re-registration returned a different counter")
	}
	if c2.Value() != 7 {
		t.Fatalf("count lost across re-registration: %d", c2.Value())
	}
	// Different labels → different series.
	c3 := r.Counter("amoeba_test_total", L("service", "bank"), "help")
	if c3 == c1 {
		t.Fatal("different labels returned the same counter")
	}
	// Kind conflict panics.
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("amoeba_test_total", L("service", "dir"), "help")
}

func TestGaugeFuncReplacedOnReregistration(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("amoeba_depth", "", "", func() float64 { return 1 })
	r.GaugeFunc("amoeba_depth", "", "", func() float64 { return 2 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "amoeba_depth 2") {
		t.Fatalf("gauge func not replaced:\n%s", buf.String())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("amoeba_requests_total", L("service", "dir", "op", "enter", "status", "ok"), "Requests.").Add(3)
	r.Gauge("amoeba_queue_depth", L("service", "dir"), "Depth.").Set(5)
	r.CounterFunc("amoeba_tcp_frames_out_total", "", "Frames.", func() uint64 { return 1 << 40 })
	h := r.Histogram("amoeba_handle_ns", L("service", "dir"), "Handler time.")
	h.Observe(100)
	h.Observe(200000)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE amoeba_requests_total counter",
		`amoeba_requests_total{service="dir",op="enter",status="ok"} 3`,
		"# TYPE amoeba_tcp_frames_out_total counter",
		"amoeba_tcp_frames_out_total 1099511627776", // an integer, not %g's 1.09951e+12
		"# TYPE amoeba_queue_depth gauge",
		`amoeba_queue_depth{service="dir"} 5`,
		"# TYPE amoeba_handle_ns histogram",
		`amoeba_handle_ns_bucket{service="dir",le="+Inf"} 2`,
		`amoeba_handle_ns_sum{service="dir"} 200100`,
		`amoeba_handle_ns_count{service="dir"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must parse as `series value`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("unparsable exposition line: %q", line)
		}
	}
}

func TestWriteJSONParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "", "").Add(1)
	r.Gauge("g", L("a", "b"), "").Set(-2)
	r.GaugeFunc("gf", "", "", func() float64 { return 1.5 })
	r.CounterFunc("cf", "", "", func() uint64 { return 9 })
	r.Histogram("h", "", "").Observe(10)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v\n%s", err, buf.String())
	}
	if len(m) != 5 {
		t.Fatalf("got %d series, want 5: %v", len(m), m)
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := L("k", `a"b\c`); got != `k="a\"b\\c"` {
		t.Fatalf("L escaped to %q", got)
	}
}

func TestRingWrapAndDump(t *testing.T) {
	r := NewRing(16)
	svc := r.RegisterService("dir")
	if again := r.RegisterService("dir"); again != svc {
		t.Fatal("RegisterService not idempotent")
	}
	for i := 0; i < 40; i++ {
		r.Push(svc, uint64(i), 0x0401, 0, 7, time.Duration(i), time.Duration(2*i), false)
	}
	recs := r.Dump(0, nil)
	if len(recs) != 16 {
		t.Fatalf("Dump returned %d records, want 16 (ring capacity)", len(recs))
	}
	// Newest first: req IDs 39 down to 24.
	for k, rec := range recs {
		if want := uint64(39 - k); rec.ReqID != want {
			t.Fatalf("record %d has req ID %d, want %d", k, rec.ReqID, want)
		}
		if rec.Service != "dir" {
			t.Fatalf("record %d service = %q", k, rec.Service)
		}
	}
	if got := r.Dump(3, nil); len(got) != 3 {
		t.Fatalf("Dump(3) returned %d records", len(got))
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	svc := r.RegisterService("dir")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.Push(svc, uint64(w*1_000_000+i), 1, 0, 0, 0, 0, false)
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		r.Dump(0, nil) // must not race or tear under the detector
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want 64", r.Len())
	}
}

func TestRegisterOpsDriftPanics(t *testing.T) {
	RegisterOps(map[uint16]string{0x7f01: "test_op"})
	RegisterOps(map[uint16]string{0x7f01: "test_op"}) // identical: fine
	if OpName(0x7f01) != "test_op" {
		t.Fatalf("OpName = %q", OpName(0x7f01))
	}
	if OpName(0x7f99) != "op_7f99" {
		t.Fatalf("unregistered OpName = %q", OpName(0x7f99))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting registration did not panic")
		}
	}()
	RegisterOps(map[uint16]string{0x7f01: "different_name"})
}

func TestServerStatsObserve(t *testing.T) {
	RegisterOps(map[uint16]string{0x7f10: "stats_op"})
	reg := NewRegistry()
	ring := NewRing(16)
	statusName := func(st uint16) string { return fmt.Sprintf("s%d", st) }
	s := NewServerStats(reg, ring, "dir", statusName)
	s.Freeze([]uint16{0x7f10})

	s.Observe(0x7f10, 42, 3, 0, 5*time.Microsecond, 20*time.Microsecond)
	s.ObserveShed(0x7f10, 43, 3, 7, 100*time.Microsecond)
	// Unknown opcode lands in the fallback, not a panic.
	s.Observe(0x7fff, 44, 3, 0, 0, 0)

	if s.ShedCount() != 1 {
		t.Fatalf("ShedCount = %d", s.ShedCount())
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`amoeba_requests_total{service="dir",op="stats_op",status="s0"} 1`,
		`amoeba_requests_total{service="dir",op="stats_op",status="s7"} 1`,
		`amoeba_shed_total{service="dir"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	recs := ring.Dump(0, s.StatusName)
	if len(recs) != 3 {
		t.Fatalf("ring has %d records, want 3", len(recs))
	}
	// Newest first: the unknown-op record, then the shed, then the ok.
	if !recs[1].Shed || recs[1].Status != "s7" || recs[1].Op != "stats_op" {
		t.Fatalf("shed record wrong: %+v", recs[1])
	}
	if recs[2].ReqID != 42 || recs[2].QueueWait != 5*time.Microsecond {
		t.Fatalf("ok record wrong: %+v", recs[2])
	}
}
