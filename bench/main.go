// Command bench is the repository's benchmark: it boots the system,
// drives five named workloads against it — two over real amoebad
// processes on loopback TCP, three over the replicated in-process
// cluster — checks that what came back is correct, and prints every
// end-to-end metric by name with its unit. With -trace 1 it repeats a
// workload with spans recorded around every call it makes into the
// program and prints the per-layer metrics. See README.md.
//
//	go run ./bench -seed 1                 every workload, end-to-end metrics
//	go run ./bench -seed 1 -trace 1        every workload, per-layer metrics
//	go run ./bench -workload sim_write     one workload; the last line is JSON
//	go run ./bench -repeat 10              spread of every metric against its bound
//	go run ./bench -smoke                  1 s windows, for a quick look
//	go run ./bench -steady=false           leave the machine as it is (steady.go)
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	buildDir = ".bench_build" // the amoebad binary, at the checkout root
	outDir   = "bench/out"    // daemon logs and span files
)

// A workload is one traffic mix and the system it runs against.
type workload struct {
	name  string
	setup func(*env, uint64) (*rig, error)
	// steady runs the traffic with no fault injected: the warm-up, and
	// the untraced half of a traced run. load is the measured run.
	steady, load func(r *rig, name string, cs []*client, d time.Duration, traced bool) (*window, error)
	top          ladderTop
	tcp          bool
}

var workloads = []workload{
	{name: "tcp_small", setup: (*env).setupTCPSmall, steady: closedLoop, load: closedLoop, top: topTCP, tcp: true},
	{name: "tcp_file", setup: (*env).setupTCPFile, steady: closedLoop, load: closedLoop, top: topTCP, tcp: true},
	{name: "sim_write", setup: (*env).setupSimWrite, steady: closedLoop, load: closedLoop, top: topSharded},
	{name: "sim_walk", setup: (*env).setupSimWalk, steady: closedLoop, load: closedLoop, top: topCachedWalk},
	{name: "sim_failover", setup: (*env).setupSimFailover, steady: steadyLoop, load: failoverLoop, top: topReplicated},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what a run needs besides its workload: where the checkout is,
// the daemon binary, the children it has started, and how long to run.
type env struct {
	root    string // checkout root (holds go.mod and BENCHMARK.json)
	outDir  string
	amoebad string
	procs   children
	seed    uint64
	window  time.Duration // measured window
	warmup  time.Duration
	// segments is how many boots an untraced run shares the window
	// between; a metric is computed from theirs (bestHalf, median).
	segments int
	trace    bool
	// steady: a measured run puts the system under test on one CPU and
	// keeps that CPU awake (steady.go).
	steady  bool
	spinner *child // the spinner process, once started
	// ladderThin divides the ladder's sample counts (1: measure).
	ladderThin int
}

// findRoot walks up from the working directory to the module root, so
// the program works from the checkout root (go run ./bench) and from
// its own directory (go test ./bench).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from the repository checkout")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, outDir)}
	for _, dir := range []string{e.outDir, filepath.Join(root, buildDir)} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func main() {
	// The cluster reports elections and restarts through the standard
	// logger; a benchmark's output is its metrics.
	log.SetOutput(io.Discard)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (default: each of them in turn)")
		seed    = fs.Uint64("seed", 1, "seed for names, operation order, account pairs and kill phase")
		seconds = fs.Float64("seconds", 20, "measured window per workload, seconds")
		trace   = fs.Int("trace", 0, "1: record spans and print the per-layer metrics instead")
		repeat  = fs.Int("repeat", 0, "run this many full sets and report each metric's spread against its bound")
		smoke   = fs.Bool("smoke", false, "1 s windows and a short warm-up: a quick look, not a measurement")
		steady  = fs.Bool("steady", true, "run the system under test on one CPU kept awake by an idle-priority spinner (steady.go)")
		spinner = fs.Bool("spin", false, "be the spinner process (internal)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *spinner {
		spin()
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	e.seed, e.trace, e.steady = *seed, *trace != 0, *steady
	e.window, e.warmup, e.segments, e.ladderThin = time.Duration(*seconds*float64(time.Second)), 300*time.Millisecond, segments, 1
	if *smoke {
		e.window, e.warmup, e.segments, e.ladderThin = time.Second, 200*time.Millisecond, 1, 10
	}

	// Every exit path stops the children: the deferred call on a normal
	// or failed run, this handler on a signal.
	defer e.procs.stopAll()
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-interrupted
		e.procs.stopAll()
		os.Exit(130)
	}()

	if *name == "" {
		return e.runSets(*repeat, *smoke, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	return e.runOne(w, stdout, stderr)
}

// runOne measures one workload and prints its report. A run whose
// outputs were wrong still prints what it measured, and exits non-zero.
func (e *env) runOne(w workload, stdout, stderr io.Writer) int {
	if e.steady {
		if err := e.steadyMachine(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printHeader(stdout, e)
	steal0, all0, stealErr := cpuTicks()
	rep, err := e.measure(w)
	if err == nil {
		err = e.stayedSteady()
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if steal, all, err := cpuTicks(); err == nil && stealErr == nil && all > all0 {
		rep.notes = append(rep.notes, fmt.Sprintf("the host ran something else for %.1f %% of this machine's CPU time (steal)", 100*float64(steal-steal0)/float64(all-all0)))
	}
	rep.print(stdout)
	if !rep.correct {
		fmt.Fprintf(stderr, "bench: %s: outputs were not correct\n", w.name)
		return 1
	}
	return 0
}

func printHeader(w io.Writer, e *env) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d window=%v trace=%v steady=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, e.seed, e.window, e.trace, e.steady)
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSets runs every workload, each in a process of its own so that
// peak memory and the garbage collector's state are that workload's
// alone, exactly as when the workloads are run one at a time. With
// repeat > 0 it runs that many sets, each with the next seed, and
// judges every end-to-end metric's spread against its bound.
func (e *env) runSets(repeat int, smoke bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sets := max(repeat, 1)
	runs := map[string][]result{}
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			args := []string{
				"-workload", w.name,
				"-seed", strconv.FormatUint(e.seed+uint64(set), 10),
				"-seconds", strconv.FormatFloat(e.window.Seconds(), 'f', -1, 64),
				"-trace", map[bool]string{false: "0", true: "1"}[e.trace],
			}
			if smoke {
				args = append(args, "-smoke")
			}
			if !e.steady {
				args = append(args, "-steady=false")
			}
			cmd := exec.Command(self, args...)
			cmd.Dir = e.root
			cmd.Stderr = stderr
			// Not StdoutPipe: the child is waited for on another goroutine,
			// and Wait closes a pipe whether or not it has been read dry.
			var out bytes.Buffer
			cmd.Stdout = io.MultiWriter(stdout, &out)
			ch, err := e.procs.start(cmd)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			<-ch.done
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); ch.err != nil || err != nil {
				fmt.Fprintf(stderr, "bench: %s failed: %v\n", w.name, errors.Join(ch.err, err))
				return 1
			}
			runs[w.name] = append(runs[w.name], res)
		}
	}
	if repeat == 0 {
		return 0
	}
	return e.judgeSpread(runs, stdout, stderr)
}

// judgeSpread prints min, median and max of every metric of every
// workload over the sets, and its spread — the distance between the
// quartiles as a share of the median — against the bound BENCHMARK.json
// gives it. setup_s is shown but not judged: its bound guards the
// median against work moved into set-up, not its run-to-run spread.
func (e *env) judgeSpread(runs map[string][]result, stdout, stderr io.Writer) int {
	decl, err := readDeclaration(e.root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defs, bounds := endToEnd, decl.bounds()
	if e.trace {
		defs = perLayer
	}
	code := 0
	fmt.Fprintf(stdout, "\n%-13s %-28s %12s %12s %12s %8s %8s\n", "workload", "metric", "min", "median", "max", "spread", "/bound")
	for _, w := range workloads {
		for _, d := range defs {
			var vals []float64
			for _, r := range runs[w.name] {
				vals = append(vals, r.Metrics[d.name].Value)
			}
			q1, q3 := quartiles(vals)
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = min(lo, v), max(hi, v)
			}
			med := median(vals)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			verdict := ""
			if bound, ok := bounds[d.name]; ok {
				verdict = fmt.Sprintf("%8.2f", spread/bound)
				if spread > bound && d.name != "setup_s" {
					verdict += "  EXCEEDED"
					code = 1
				}
			}
			fmt.Fprintf(stdout, "%-13s %-28s %12.4g %12.4g %12.4g %7.1f%% %s\n", w.name, d.name, lo, med, hi, 100*spread, verdict)
		}
	}
	return code
}

// declaration is the part of BENCHMARK.json the program reads back.
type declaration struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []declared              `json:"end_to_end"`
	PerLayer  []declared              `json:"per_layer"`
}

type declared struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readDeclaration(root string) (*declaration, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

func (d *declaration) bounds() map[string]float64 {
	b := map[string]float64{}
	for _, m := range d.EndToEnd {
		b[m.Name] = m.Bound
	}
	return b
}

// print writes the report for people, then the result line for the
// driver: one JSON object, the last line of standard output.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "%s  seed=%d  samples=%d (%d beyond one window's p99)\n", rep.workload, rep.seed, rep.samples, rep.beyondP99)
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range rep.defs {
		v := rep.metrics[d.name]
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(w, "  %-30s %14.6f ratio   (%d of %d attempted)\n", "fail_ratio", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	fmt.Fprintf(w, "  %-30s %14d count   (acknowledged effects missing, or unacknowledged ones present, at read-back)\n", "acked_lost", rep.lost)
	if len(rep.gapsMs) > 0 {
		fmt.Fprintf(w, "  %-30s %14.4f ms      (median of %d kills: %s)\n", "failover_gap_ms", median(rep.gapsMs), len(rep.gapsMs), joinFloats(rep.gapsMs))
	}
	if len(rep.perSegment["ops_per_s"]) > 1 {
		for _, name := range []string{"ops_per_s", "p50_us", "p99_us", "cpu_us_per_op", "setup_s", "steal_pct"} {
			fmt.Fprintf(w, "  each segment's %-14s %s\n", name+":", joinFloats(rep.perSegment[name]))
		}
	}
	for _, note := range rep.notes {
		fmt.Fprintf(w, "  ! %s\n", note)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of numbers and strings always marshals
	}
	fmt.Fprintf(w, "%s\n", line)
}

func joinFloats(v []float64) string {
	s := make([]string, len(v))
	for i, f := range v {
		s[i] = strconv.FormatFloat(f, 'g', 4, 64)
	}
	return strings.Join(s, " ")
}
