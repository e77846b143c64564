package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef is one declared metric. BENCHMARK.json declares the same
// names and units; bench_test.go holds the two lists together.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports
// all of them; none is ever zero.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is one number per layer boundary, named <module>.<metric>.
// Each comes from the traced window of the workload where that
// workload exercises the layer, and from the ladder's probe of an idle
// system otherwise; README.md says which.
var perLayer = []metricDef{
	{"amnet.tcp.rtt64_us", "us"},
	{"amnet.tcp.rtt16k_us", "us"},
	{"amnet.rawconn.rtt64_us", "us"},
	{"amnet.tcp.rtt_ratio", "ratio"},
	{"amnet.sim.rtt64_us", "us"},
	{"amnet.sim.frames_per_op", "count"},
	{"amnet.sim.overrun", "count"},
	{"fbox.echo_us", "us"},
	{"fbox.self_us", "us"},
	{"fbox.f_ns", "ns"},
	{"rpc.echo_us", "us"},
	{"rpc.tcp_echo_us", "us"},
	{"rpc.self_us", "us"},
	{"rpc.client_allocs_per_op", "count"},
	{"rpc.server_queue_wait_p50_us", "us"},
	{"rpc.server_handle_p50_us", "us"},
	{"rpc.shed_total", "count"},
	{"rpc.status_nonok_per_kop", "count"},
	{"cap.validate_ns", "ns"},
	{"cap.mint_ns", "ns"},
	{"locate.hit_ns", "ns"},
	{"locate.broadcast_us", "us"},
	{"locate.broadcasts_per_kop", "count"},
	{"locate.heal_ms", "ms"},
	{"wal.append_us", "us"},
	{"wal.records_per_sync", "count"},
	{"wal.syncs_per_op", "count"},
	{"wal.sync_p50_us", "us"},
	{"wal.self_us", "us"},
	{"repl.self_us", "us"},
	{"repl.ship_lag_max", "count"},
	{"repl.promote_ms", "ms"},
	{"repl.reintegrate_ms", "ms"},
	{"repl.elections", "count"},
	{"repl.elections_refused", "count"},
	{"shard.self_us", "us"},
	{"shard.wrong_shard_per_kop", "count"},
	{"lease.hit_ratio", "ratio"},
	{"lease.invalidated_per_write", "count"},
	{"lease.walk8_hit_ns", "ns"},
	{"dirsvr.walk4_us", "us"},
	{"dirsvr.walk8_miss_us", "us"},
	{"dirsvr.enter_us", "us"},
	{"dirsvr.enter_volatile_us", "us"},
	{"dirsvr.enter_durable_us", "us"},
	{"dirsvr.enter_replicated_us", "us"},
	{"dirsvr.enter_sharded_us", "us"},
	{"banksvr.transfer_us", "us"},
	{"flatfs.write16k_us", "us"},
	{"flatfs.read16k_us", "us"},
	{"blocksvr.writebatch16_us", "us"},
	{"blocksvr.readbatch16_us", "us"},
	{"failover_gap_ms", "ms"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.client_cpu_share", "ratio"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.ladder_residual_pct", "%"},
}

// report is one workload's run, ready to print.
type report struct {
	workload  string
	seed      uint64
	correct   bool
	attempted uint64
	failed    uint64
	lost      int
	samples   uint64
	beyondP99 uint64
	defs      []metricDef
	metrics   map[string]float64
	gapsMs    []float64
	// perSegment holds each segment's value of every timing metric of an
	// untraced run, and under "steal_pct" the percentage of the machine's
	// CPU time the host gave to someone else during it.
	perSegment map[string][]float64
	notes      []string
	wrong      uint64
	// unchecked is set when a read-back could not be done.
	unchecked bool
	// warmFailed counts operations that failed before the window opened.
	warmFailed uint64
}

// measure runs one workload: untraced for the end-to-end metrics,
// traced for the per-layer ones.
func (e *env) measure(w workload) (*report, error) {
	if w.tcp {
		if err := e.buildAmoebad(); err != nil {
			return nil, err
		}
	}
	rep := &report{workload: w.name, seed: e.seed, metrics: map[string]float64{}}
	run := e.measureSegments
	if e.trace {
		run = e.measureTraced
	}
	if err := run(w, rep); err != nil {
		return nil, err
	}
	if rep.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %v", e.window)
	}
	rep.correct = rep.wrong == 0 && rep.lost == 0 && !rep.unchecked && rep.warmFailed == 0
	for name, v := range rep.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.metrics[name] = 0
		}
	}
	return rep, nil
}

// measureSegments is an untraced run: e.segments times over it boots
// and populates the system (timed, for setup_s), warms it up, measures
// an equal share of e.window, reads the final state back and shuts the
// system down. Set-up time is the median of the segments', every other
// timing the mean of the better half of them, peak memory the largest.
func (e *env) measureSegments(w workload, rep *report) error {
	rep.defs = endToEnd
	cs := newClients(e.seed)
	per := map[string][]float64{}
	for i := 0; i < e.segments; i++ {
		t0 := time.Now()
		r, err := w.setup(e, e.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		per["setup_s"] = append(per["setup_s"], time.Since(t0).Seconds())
		win, err := e.segment(w, r, cs, rep)
		r.close()
		if err != nil {
			return err
		}
		// Collect the closed system now, so that peak memory is one booted
		// system's and not that plus however many closed ones the
		// collector had not reached yet.
		runtime.GC()
		per["ops_per_s"] = append(per["ops_per_s"], win.opsPerSecond())
		per["p50_us"] = append(per["p50_us"], win.quantileUs(0.50))
		per["p99_us"] = append(per["p99_us"], win.quantileUs(0.99))
		per["cpu_us_per_op"] = append(per["cpu_us_per_op"], win.cpuPerOpUs())
		per["steal_pct"] = append(per["steal_pct"], 100*win.stolen)
		// The generator's peak only grows, so the largest segment is the
		// run's peak with whichever daemons were largest.
		rep.metrics["peak_rss_mb"] = max(rep.metrics["peak_rss_mb"], win.peakKB/1024)
	}
	rep.perSegment = per
	rep.metrics["setup_s"] = median(per["setup_s"])
	rep.metrics["ops_per_s"] = bestHalf(per["ops_per_s"], true)
	for _, name := range []string{"p50_us", "p99_us", "cpu_us_per_op"} {
		rep.metrics[name] = bestHalf(per[name], false)
	}
	return nil
}

// segment warms a booted system up, measures e.window/e.segments of the
// workload's load on it, and checks the outputs.
func (e *env) segment(w workload, r *rig, cs []*client, rep *report) (*window, error) {
	if err := e.warm(w, r, cs, rep); err != nil {
		return nil, err
	}
	win, err := w.load(r, w.name, cs, e.window/time.Duration(e.segments), false)
	if err != nil {
		return nil, err
	}
	return win, rep.account(r, win)
}

// account adds a window's operations to the report and reads the
// system's final state back. It is called once per booted system,
// after that system's last window.
func (rep *report) account(r *rig, windows ...*window) error {
	for _, win := range windows {
		rep.attempted += win.acked + win.failed
		rep.failed += win.failed
		rep.wrong += win.wrong
		rep.samples += win.lat.n
		if win.firstErr != nil {
			rep.notes = append(rep.notes, fmt.Sprintf("first failed operation: %v", win.firstErr))
		}
		if win.kill != nil {
			rep.gapsMs = append(rep.gapsMs, win.kill.gapMs())
		}
	}
	rep.beyondP99 = windows[len(windows)-1].lat.beyond(0.99)
	lost, err := r.check()
	if err != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("read-back: %v", err))
		rep.unchecked = true
	}
	rep.lost += lost
	return r.alive()
}

// measureTraced is a traced run on one booted system: it climbs the
// ladder, then runs an untraced and a traced window of equal length
// inside the same e.window, so that the two throughputs differ by the
// tracing and nothing else.
func (e *env) measureTraced(w workload, rep *report) error {
	rep.defs = perLayer
	r, err := w.setup(e, e.seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	cs := newClients(e.seed)
	lad := newLadder(e.ladderThin)
	ladderStart := now()
	if err := lad.run(e.seed, r.tcp); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	ladderEnd := now()
	// The ladder's time comes out of the window, so a traced run takes
	// as long as an untraced one.
	half := max((e.window-time.Duration(ladderEnd-ladderStart))/2, e.window/10)
	if err := e.warm(w, r, cs, rep); err != nil {
		return err
	}
	plain, err := w.steady(r, w.name+".untraced", cs, half, false)
	if err != nil {
		return err
	}
	traced, err := w.load(r, w.name, cs, half, true)
	if err != nil {
		return err
	}
	rep.metrics = layerMetrics(w.top, r.kinds, lad.vals, plain, traced)
	roots := []rootSpan{
		{"ladder", "", ladderStart, ladderEnd},
		{traced.name, "", traced.start, traced.start + int64(traced.elapsed)},
	}
	path := filepath.Join(e.outDir, w.name+".trace.jsonl")
	if err := writeTrace(path, roots, append([]*spanBuf{lad.spans}, traced.bufs...)); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.notes = append(rep.notes, "spans written to "+path)
	return rep.account(r, plain, traced)
}

// warm runs the load uncounted so caches, connections, routes and
// leases are in their steady state. The workloads are chosen so that
// no operation fails; one that fails even here makes the run incorrect.
func (e *env) warm(w workload, r *rig, cs []*client, rep *report) error {
	win, err := w.steady(r, "warmup", cs, e.warmup, false)
	if err != nil {
		return err
	}
	if win.failed > 0 {
		rep.warmFailed += win.failed
		rep.notes = append(rep.notes, fmt.Sprintf("%d operations failed during warm-up, first: %v", win.failed, win.firstErr))
	}
	return nil
}

// layerMetrics assembles the per-layer metrics of a traced run: the
// ladder's values, overridden where this workload's own spans and
// counters measure the same thing under load.
func layerMetrics(top ladderTop, kinds []opKind, ladder map[string]float64, plain, traced *window) map[string]float64 {
	v := map[string]float64{}
	for k, x := range ladder {
		v[k] = x
	}
	var writes float64
	for i, k := range kinds {
		h := &traced.byKind[i]
		if k.metric != "" && h.n > 0 {
			v[k.metric] = h.quantile(0.50) / k.perUnit
		}
		if k.span == "dirsvr.enter" || k.span == "dirsvr.remove" {
			writes += float64(h.n)
		}
	}
	ops := float64(traced.acked)
	kop := ops / 1000
	p := traced.prom
	v["amnet.sim.frames_per_op"] = float64(traced.frames) / ops
	v["amnet.sim.overrun"] = float64(traced.overrun)
	v["rpc.client_allocs_per_op"] = float64(traced.mallocs) / ops
	v["rpc.server_queue_wait_p50_us"] = p.histQuantile("amoeba_request_queue_wait_ns", 0.5) / us
	v["rpc.server_handle_p50_us"] = p.histQuantile("amoeba_request_handle_ns", 0.5) / us
	v["rpc.shed_total"] = p.sum("amoeba_shed_total")
	v["rpc.status_nonok_per_kop"] = (p.sum("amoeba_requests_total") - p.sum("amoeba_requests_total", `status="ok"`)) / kop
	v["shard.wrong_shard_per_kop"] = p.sum("amoeba_requests_total", `status="wrong shard"`) / kop
	v["locate.broadcasts_per_kop"] = float64(traced.broadcasts) / kop
	v["wal.records_per_sync"], v["wal.syncs_per_op"] = 0, 0
	if syncs := p.sum("amoeba_wal_batch_records_count"); syncs > 0 {
		v["wal.records_per_sync"] = p.sum("amoeba_wal_batch_records_sum") / syncs
		v["wal.syncs_per_op"] = syncs / ops
		v["wal.sync_p50_us"] = p.histQuantile("amoeba_wal_sync_ns", 0.5) / us
	}
	v["repl.ship_lag_max"] = traced.lagMax
	v["repl.elections"] = p.sum("amoeba_failovers_total")
	v["repl.elections_refused"] = p.sum("amoeba_elections_refused_total")
	hits, invalidated := p.sum("amoeba_lookup_cache_hits_total"), p.sum("amoeba_lookup_cache_invalidated_total")
	v["lease.hit_ratio"], v["lease.invalidated_per_write"] = 0, 0
	if lookups := hits + invalidated + p.sum("amoeba_lookup_cache_misses_total") + p.sum("amoeba_lookup_cache_expired_total"); lookups > 0 {
		v["lease.hit_ratio"] = hits / lookups
	}
	if writes > 0 {
		v["lease.invalidated_per_write"] = invalidated / writes
	}
	if k := traced.kill; k != nil {
		v["failover_gap_ms"], v["repl.promote_ms"] = k.gapMs(), k.promoteMs()
		v["locate.heal_ms"], v["repl.reintegrate_ms"] = k.healMs(), float64(k.restart)/ms
	}
	v["proc.gc_pause_ms"] = float64(traced.gcPause) / ms
	v["proc.client_cpu_share"] = float64(traced.selfCPU) / float64(traced.totalCPU)
	v["gen.late_p99_ms"] = traced.lateMs
	v["trace.overhead_pct"] = 100 * (1 - traced.opsPerSecond()/plain.opsPerSecond())
	p50 := plain.quantileUs(0.50)
	v["trace.ladder_residual_pct"] = 100 * (p50 - top(v)) / p50
	return v
}
