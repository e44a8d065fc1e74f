// Command perfbench is the repository's benchmark: one process that
// drives the simulator, the run engine, the experiment harness and the
// reprod service through their Go APIs, checks every output, and prints
// end-to-end metrics (or, with -trace 1, per-layer metrics) as one JSON
// line. See README.md beside this file for the workloads, the metric →
// layer map and how to read a traced run.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// maxProcs caps GOMAXPROCS, the sweep's worker pool, the daemon's
// workers and the number of concurrent clients, so the benchmark loads
// a host the same way whatever its core count (at or below nproc).
const maxProcs = 2

// defPath names the metrics to print and their units; outDir receives
// spans, profiles and the serve workload's cache directories. Both are
// relative to the repository root the benchmark runs from.
var (
	defPath = "BENCHMARK.json"
	outDir  = filepath.Join(".bench_build", "perfbench")
)

// Before its repetitions, a run times at least minSetups set-ups, and
// keeps setting up until setupBudget has been spent or maxSetups are
// done, so a set-up of a fraction of a millisecond still has a steady
// median. Each repetition sets up once more; setup_s is the median of
// them all. A run makes at least minReps repetitions, however long they
// take, so that wall_s is a median and not a mean of two.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = time.Second
	minReps     = 3
)

// workload is one benchmark input set. setup prepares a pass (the
// untimed preparation reported as setup_s) and may be called again to
// start over from fresh state; pass executes the fixed work once.
// unreached lists, by name prefix, the per-layer metrics of layers the
// workload never calls or does not measure (see notReached).
type workload interface {
	setup() error
	pass(tr *tracer) (*outcome, error)
	close()
	unreached() []string
}

// outcome is what one pass measured and checked.
type outcome struct {
	wall      time.Duration
	ops       int // operations completed: req_per_s's numerator
	attempted int
	failed    int
	problems  []string
	// exact holds deterministic counters: the same seed must reproduce
	// them exactly, traced or not.
	exact map[string]int64
	// layer holds this pass's other per-layer measurements.
	layer map[string]float64
}

func newOutcome() *outcome {
	return &outcome{exact: map[string]int64{}, layer: map[string]float64{}}
}

// fail records one failed or wrong operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		name    = flag.String("workload", "", "workload: sweep, scale or serve")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 30, "repeat the workload until this many seconds of timed work are done")
		traced  = flag.Int("trace", 0, "1: run untraced, then traced, and print per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if *traced != 0 && *traced != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	raw, err := os.ReadFile(defPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", defPath, err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	var w workload
	switch *name {
	case "sweep":
		w = newSweep(*seed)
	case "scale":
		w = newScale(*seed)
	case "serve":
		w = newServe(*seed, outDir)
	default:
		return fmt.Errorf("unknown -workload %q (want sweep, scale or serve)", *name)
	}
	defer w.close()

	// Repeat set-up and the fixed work until -seconds of timed work and
	// at least minReps repetitions are done; every figure is a median.
	var (
		setups, walls, rates []float64
		timed                time.Duration
		first                *outcome
		rep                  = report{Correct: true, Metrics: map[string]metricValue{}}
	)
	setup := func() error {
		t := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		return nil
	}
	for spent := time.Duration(0); len(setups) < minSetups || (len(setups) < maxSetups && spent < setupBudget); {
		t := time.Now()
		if err := setup(); err != nil {
			return err
		}
		spent += time.Since(t)
	}
	for i := 0; i < minReps || timed < time.Duration(*seconds)*time.Second; i++ {
		if err := setup(); err != nil {
			return err
		}
		o, err := w.pass(nil)
		if err != nil {
			return err
		}
		if first == nil {
			first = o
			printExact(o)
		} else {
			sameExact(first, o)
		}
		printProblems(fmt.Sprintf("repetition %d", i+1), o)
		rep.Attempted += o.attempted
		rep.Failed += o.failed
		timed += o.wall
		walls = append(walls, o.wall.Seconds())
		rates = append(rates, float64(o.ops)/o.wall.Seconds())
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	values := map[string]float64{
		"wall_s":      median(walls),
		"req_per_s":   median(rates),
		"setup_s":     median(setups),
		"peak_rss_mb": rss,
	}
	fmt.Printf("%d repetitions; wall_s each: %.4g; %d set-ups\n", len(walls), walls, len(setups))
	defs := def.EndToEnd
	if *traced == 1 {
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		o, tv, err := tracedPass(w, first, *name, *seed)
		if err != nil {
			return err
		}
		rep.Attempted += o.attempted
		rep.Failed += o.failed
		tv["trace.overhead_wall_s"] = o.wall.Seconds() - values["wall_s"]
		tv["trace.overhead_req_per_s"] = float64(o.ops)/o.wall.Seconds() - values["req_per_s"]
		values, defs = tv, def.PerLayer
	}
	rep.Correct = rep.Failed == 0
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && *traced == 1 && notReached(w, d.Name) {
			v, ok = 0, true
		}
		if !ok {
			return fmt.Errorf("%s names metric %q, which this program does not produce", defPath, d.Name)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	printTable(*name, *seed, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// sameExact fails o for every deterministic counter that differs from
// the first repetition's: one seed must reproduce them exactly.
func sameExact(first, o *outcome) {
	for _, k := range sortedKeys(first.exact) {
		if o.exact[k] != first.exact[k] {
			o.fail("exact counter %s: %d, first repetition %d", k, o.exact[k], first.exact[k])
		}
	}
	if len(o.exact) != len(first.exact) {
		o.fail("%d exact counters, first repetition %d", len(o.exact), len(first.exact))
	}
}

// tracedPass runs the fixed work once more with spans, a CPU profile
// and runtime/metrics deltas, checks its exact counters against the
// untraced repetitions, and returns every per-layer value.
func tracedPass(w workload, first *outcome, name string, seed int64) (*outcome, map[string]float64, error) {
	tr := newTracer()
	if err := tr.start(); err != nil {
		return nil, nil, err
	}
	o, err := w.pass(tr)
	tr.stop()
	if err != nil {
		return nil, nil, err
	}
	sameExact(first, o)
	printProblems("traced", o)

	values := map[string]float64{}
	for k, v := range o.exact {
		values[k] = float64(v)
	}
	for k, v := range o.layer {
		values[k] = v
	}
	samples, err := readCPUProfile(tr.prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	byLayer, byPkg := cpuShares(samples)
	for layer, frac := range byLayer {
		values[layer+".cpu_frac"] = frac
	}
	printPackages(byPkg)
	tr.after.deltaInto(tr.before, values)
	values["trace.spans"] = float64(len(tr.spans))

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.WriteFile(base+".cpu.pprof", tr.prof.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return nil, nil, err
	}
	printSpans(tr)
	return o, values, nil
}

// peakRSSMB is the process's peak resident set (Linux reports ru_maxrss
// in KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of d in milliseconds. It
// refuses to report a percentile with fewer than ten samples beyond it.
func percentile(d []time.Duration, q float64) (float64, error) {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := max(int(math.Ceil(q*float64(len(s))))-1, 0)
	if beyond := len(s) - idx - 1; beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (want 10)", q*100, len(s), beyond)
	}
	return float64(s[idx].Nanoseconds()) / 1e6, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printProblems(pass string, o *outcome) {
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s pass: %s\n", pass, p)
	}
}

func printTable(name string, seed int64, rep report) {
	fmt.Printf("perfbench %s seed=%d correct=%v attempted=%d failed=%d\n", name, seed, rep.Correct, rep.Attempted, rep.Failed)
	for _, k := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[k]
		fmt.Printf("  %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

// printExact lists the pass's deterministic counters, so an untraced
// run can be compared with a traced one by eye.
func printExact(o *outcome) {
	for _, k := range sortedKeys(o.exact) {
		fmt.Printf("exact: %-32s %d\n", k, o.exact[k])
	}
}

func printSpans(tr *tracer) {
	stats := tr.summarize()
	fmt.Printf("spans: %-32s %7s %12s %12s\n", "name", "count", "total_ms", "self_ms")
	for _, k := range sortedKeys(stats) {
		s := stats[k]
		fmt.Printf("       %-32s %7d %12.3f %12.3f\n", k, len(s.selves), ms(s.Total), ms(s.Self))
	}
}

// printPackages lists the leaf packages holding the most CPU time.
func printPackages(byPkg map[string]float64) {
	names := sortedKeys(byPkg)
	sort.SliceStable(names, func(i, j int) bool { return byPkg[names[i]] > byPkg[names[j]] })
	fmt.Printf("cpu:   %-40s %8s\n", "leaf package", "share")
	for i, p := range names {
		if i == 20 {
			break
		}
		fmt.Printf("       %-40s %8.4f\n", p, byPkg[p])
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
