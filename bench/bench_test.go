package main

import (
	"context"
	"io"
	"log"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	log.SetOutput(io.Discard) // the cluster narrates elections there
	os.Exit(m.Run())
}

// smokeEnv is a run short enough for tier 1: ~300 ms windows, a thinned
// ladder, one set-up.
func smokeEnv(t *testing.T, trace bool) *env {
	t.Helper()
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	e.seed, e.trace = 7, trace
	e.window, e.warmup, e.segments, e.ladderThin = 300*time.Millisecond, 50*time.Millisecond, 1, 50
	t.Cleanup(e.procs.stopAll)
	return e
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

// TestDeclaration holds BENCHMARK.json and the program together: the
// workloads, metric names and units the file declares are exactly the
// ones the program runs and prints.
func TestDeclaration(t *testing.T) {
	e := smokeEnv(t, false)
	decl, err := readDeclaration(e.root)
	if err != nil {
		t.Fatal(err)
	}
	var inFile, run []string
	for _, w := range decl.Workloads {
		inFile = append(inFile, w.Name)
	}
	for _, w := range workloads {
		run = append(run, w.name)
	}
	if strings.Join(inFile, " ") != strings.Join(run, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", inFile, run)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, pair := range []struct {
		what string
		decl []declared
		defs []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(pair.decl) != len(pair.defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", pair.what, len(pair.decl), len(pair.defs))
			continue
		}
		for i, d := range pair.decl {
			if d.Name != pair.defs[i].name || d.Unit != pair.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", pair.what, i, d.Name, d.Unit, pair.defs[i].name, pair.defs[i].unit)
			}
			if !valid.MatchString(d.Name) {
				t.Errorf("%s: name %q is not made of letters, digits, '_', '.' and '-'", pair.what, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s: name %q is used twice", pair.what, d.Name)
			}
			seen[d.Name] = true
		}
	}
}

func wantMetrics(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if got, want := len(rep.metrics), len(defs); got != want {
		t.Errorf("%s emitted %d metrics, %d declared", rep.workload, got, want)
	}
	for _, name := range names(defs) {
		if _, ok := rep.metrics[name]; !ok {
			t.Errorf("%s did not emit declared metric %s", rep.workload, name)
		}
	}
	if !rep.correct || rep.failed != 0 || rep.lost != 0 {
		t.Errorf("%s: correct=%v failed=%d acked_lost=%d notes=%v", rep.workload, rep.correct, rep.failed, rep.lost, rep.notes)
	}
}

// TestSmoke runs every in-process workload end to end for a moment and
// checks that it emits exactly the declared end-to-end metrics and
// passes its own correctness checks (sim_failover with one kill). The
// TCP workloads need the amoebad build and are covered by
// `go run ./bench -smoke`.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		if w.tcp {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			rep, err := smokeEnv(t, false).measure(w)
			if err != nil {
				t.Fatal(err)
			}
			wantMetrics(t, rep, endToEnd)
			if w.name == "sim_failover" && len(rep.gapsMs) != 1 {
				t.Errorf("sim_failover killed the primary %d times, want 1", len(rep.gapsMs))
			}
		})
	}
}

// TestSmokeTraced climbs the ladder once and checks a traced run emits
// exactly the declared per-layer metrics and writes its span file.
func TestSmokeTraced(t *testing.T) {
	w, _ := findWorkload("sim_write")
	e := smokeEnv(t, true)
	rep, err := e.measure(w)
	if err != nil {
		t.Fatal(err)
	}
	wantMetrics(t, rep, perLayer)
	spans, err := os.ReadFile(e.outDir + "/sim_write.trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"ladder"`, `"parent":"ladder"`, `"name":"banksvr.transfer"`, `"parent":"sim_write"`} {
		if !strings.Contains(string(spans), want) {
			t.Errorf("span file has no %s", want)
		}
	}
}

// TestPlantedFault corrupts a checker input — the capability one walk
// is expected to return — and requires the run to notice and exit
// non-zero, while the same run unplanted exits zero.
func TestPlantedFault(t *testing.T) {
	w, _ := findWorkload("sim_walk")
	if code := smokeEnv(t, false).runOne(w, io.Discard, io.Discard); code != 0 {
		t.Fatalf("clean run exited %d", code)
	}
	setup := w.setup
	w.setup = func(e *env, seed uint64) (*rig, error) {
		r, err := setup(e, seed)
		if err == nil {
			r.trees[0].want[0].Check ^= 1
		}
		return r, err
	}
	var out strings.Builder
	if code := smokeEnv(t, false).runOne(w, &out, io.Discard); code == 0 {
		t.Fatalf("run with a flipped expected capability exited 0:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("result line does not say correct:false:\n%s", out.String())
	}
}

// TestReadBackCountsBothWays: an acknowledged entry the model holds but
// the directory lacks, and an entry the directory holds unasked, each
// count as one lost effect.
func TestReadBackCountsBothWays(t *testing.T) {
	w, _ := findWorkload("sim_write")
	r, err := w.setup(smokeEnv(t, false), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	ctx := context.Background()
	dirs := r.cluster.Dirs()
	dir, err := dirs.CreateDir(ctx, r.cluster.DirPort())
	if err != nil {
		t.Fatal(err)
	}
	if err := dirs.Enter(ctx, dir, "kept", mark); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		model map[string]bool
		want  int
	}{
		{map[string]bool{"kept": true}, 0},
		{map[string]bool{"kept": true, "dropped": true}, 1},
		{map[string]bool{}, 1},
	} {
		if got, err := listed(ctx, dirs, dir, c.model); err != nil || got != c.want {
			t.Errorf("listed(%v) = %d, %v; want %d", c.model, got, err, c.want)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100000
		if got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	segs := []float64{9, 3, 7, 1, 8, 2, 6, 4, 5, 10}
	if lo, hi := bestHalf(segs, false), bestHalf(segs, true); lo != 3 || hi != 8 {
		t.Errorf("bestHalf(1..10) = %v lowest, %v highest; want 3, 8", lo, hi)
	}
	if one := bestHalf([]float64{4}, false); one != 4 {
		t.Errorf("bestHalf of one value = %v, want it back", one)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python's statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
}
