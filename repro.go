// Package repro reproduces Martin, Vahdat, Culler & Anderson, "Effects of
// Communication Latency, Overhead, and Bandwidth in a Cluster
// Architecture" (ISCA 1997) as a self-contained Go library.
//
// It provides:
//
//   - a deterministic discrete-event cluster simulator with a Generic
//     Active Messages layer whose LogGP parameters — latency L, overhead
//     o, gap g, and bulk Gap G — can be varied independently, exactly as
//     the paper's modified LANai firmware allows;
//   - a Split-C-like SPMD programming layer (global pointers, blocking
//     reads, pipelined writes, bulk transfers, barriers, collectives,
//     locks) for writing parallel programs against the simulated machine;
//   - the paper's ten-application benchmark suite, each application
//     running its real algorithm and verified against a serial reference;
//   - the calibration microbenchmarks (LogP signatures) and the analytic
//     sensitivity models of §5;
//   - a deterministic fault-injection layer (message drops, duplication,
//     extra wire latency, processor stalls and slowdowns) paired with an
//     optional AM reliability protocol that recovers from a lossy wire by
//     NIC-level retransmission; and
//   - an experiment harness that regenerates every table and figure of
//     the paper's evaluation, plus extension experiments beyond it.
//
// Quick start:
//
//	w, _ := repro.NewWorld(4, repro.NOW(), 1)
//	w.Run(func(p *repro.Proc) {
//		g := p.Alloc(1)
//		p.Barrier()
//		// ... SPMD code: p.ReadWord, p.WriteWord, p.Barrier, ...
//		_ = g
//	})
//
// instrument a run (tracing, stall attribution — anything implementing
// Hooks) through the world's single attach point:
//
//	w, _ := repro.NewWorld(4, repro.NOW(), 1)
//	rec := &repro.TraceRecorder{Limit: 100_000}
//	pf := repro.NewProfiler(4)
//	w.Attach(rec, pf)
//	w.Run(body)
//	fmt.Print(pf.Snapshot(w).Text())
//
// or run a paper experiment:
//
//	tab, _ := repro.RunExperiment("fig5b", repro.Options{Quick: true})
//	fmt.Println(tab.Text())
package repro

import (
	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/suite"
	"repro/internal/calib"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/logp"
	"repro/internal/prof"
	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/splitc"
	"repro/internal/splitc/tune"
	"repro/internal/trace"
)

// Core type surface, re-exported from the implementation packages.
type (
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Params is a LogGP machine description plus the four experiment
	// knobs (added overhead, gap, latency, and a bulk-bandwidth cap).
	Params = logp.Params
	// World is a P-processor simulated cluster with a global address
	// space.
	World = splitc.World
	// Proc is one simulated processor's handle, passed to SPMD bodies.
	Proc = splitc.Proc
	// GPtr is a global pointer into the cluster's address space.
	GPtr = splitc.GPtr
	// WorldConfig collects every World construction knob (processor
	// count, machine, seed, time limit, collective selection).
	WorldConfig = splitc.Config
	// Collectives names the collective algorithm per primitive (barrier,
	// broadcast, all-reduce). Fields take the names from
	// BarrierAlgorithms and friends, or CollAuto for the LogGP
	// auto-tuner's pick; the zero value keeps the historical defaults.
	Collectives = splitc.Collectives
	// ReduceOp identifies a built-in all-reduce operator (OpSum, OpMax).
	ReduceOp = splitc.ReduceOp
	// TuneSelection is the collective auto-tuner's pick, one algorithm
	// name per primitive.
	TuneSelection = tune.Selection
	// App is one benchmark application.
	App = apps.App
	// AppConfig parameterizes a benchmark run.
	AppConfig = apps.Config
	// AppResult reports a benchmark run.
	AppResult = apps.Result
	// Calibration is the measured LogGP characteristics of a machine.
	Calibration = calib.Measured
	// Options parameterizes experiment-harness runs.
	Options = exp.Options
	// Table is a rendered experiment result.
	Table = exp.Table
	// Experiment is one reproducible paper artifact.
	Experiment = exp.Experiment
	// Hooks is the instrumentation interface: implementations receive
	// every message event and time charge. Embed NopHooks and override
	// what you need; attach via World.Attach or AppConfig.Hooks.
	Hooks = am.Hooks
	// NopHooks is the no-op base for Hooks implementations.
	NopHooks = am.NopHooks
	// TraceRecorder buffers per-message events for timeline rendering;
	// attach via World.Attach (or AppConfig.Hooks).
	TraceRecorder = trace.Recorder
	// Profiler is the stall-attribution accountant: attach via
	// World.Attach (or set AppConfig.Profile) and Snapshot after the run.
	Profiler = prof.Profiler
	// Profile is a run's per-processor time breakdown; the categories sum
	// exactly to the makespan on every processor (CheckConservation).
	Profile = prof.Profile
	// ProcBreakdown is one processor's attributed time per category.
	ProcBreakdown = prof.ProcBreakdown
	// RunSpec is the canonical key of one simulation run (app, procs,
	// scale, seed, knob, value, verify).
	RunSpec = run.Spec
	// RunPlan is a deduplicated set of RunSpecs with baseline→sweep
	// dependencies; experiments declare one, cmd/repro merges them.
	RunPlan = run.Plan
	// RunStore collects run outcomes, executing each distinct spec once.
	RunStore = run.Store
	// Runner executes RunPlans on a bounded worker pool.
	Runner = run.Runner
	// RunProgress reports one completed run to a Runner callback.
	RunProgress = run.Progress
	// FaultSpec is the canonical fault scenario of a RunSpec: a one-off
	// processor delay and/or a lossy wire under the reliability protocol.
	FaultSpec = run.FaultSpec
	// FaultPlan is a declarative, seed-deterministic schedule of injected
	// faults (drops, duplications, wire delays, processor stalls and
	// slowdowns); set AppConfig.FaultPlan to apply one to a run.
	FaultPlan = fault.Plan
	// FaultMatch selects wire transmissions for fault rules; FaultAny()
	// matches every transmission.
	FaultMatch = fault.Match
	// DropRule, DupRule, WireDelayRule, LinkDelayWindow, ProcDelay, and
	// SlowdownWindow are the FaultPlan rule kinds.
	DropRule        = fault.DropRule
	DupRule         = fault.DupRule
	WireDelayRule   = fault.WireDelayRule
	LinkDelayWindow = fault.LinkDelayWindow
	ProcDelay       = fault.ProcDelay
	SlowdownWindow  = fault.SlowdownWindow
	// Reliability configures the AM-layer reliability protocol (sequence
	// numbers, receiver dedup and resequencing, cumulative acks, timeout
	// retransmission); required whenever the fault plan is lossy.
	Reliability = am.Reliability
	// DeliveryError reports a message that exhausted its retransmission
	// budget; runs fail with it in their error chain (match errors.As).
	DeliveryError = am.DeliveryError
)

// FaultAny returns a FaultMatch that matches every wire transmission.
func FaultAny() FaultMatch { return fault.Any() }

// Machine presets (paper Table 1, §5.1).
var (
	// NOW is the Berkeley NOW baseline: o=2.9µs, g=5.8µs, L=5µs, 38 MB/s.
	NOW = logp.NOW
	// Paragon is the Intel Paragon comparison point.
	Paragon = logp.Paragon
	// Meiko is the Meiko CS-2 comparison point.
	Meiko = logp.Meiko
	// LAN approximates a mid-90s switched-LAN TCP/IP stack (~100µs o).
	LAN = logp.LAN
)

// Virtual-time helpers.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// FromMicros converts floating-point microseconds to Time.
func FromMicros(us float64) Time { return sim.FromMicros(us) }

// NewWorld builds a cluster of p processors with the given network
// parameters. Seed fixes all pseudo-randomness; equal seeds give
// bit-identical runs.
func NewWorld(p int, params Params, seed int64) (*World, error) {
	return splitc.NewWorld(p, params, seed)
}

// NewWorldCfg builds a cluster from a full WorldConfig, resolving the
// collective selection (including CollAuto fields, tuned against the
// config's own machine) at construction.
func NewWorldCfg(cfg WorldConfig) (*World, error) { return splitc.NewWorldCfg(cfg) }

// Collective selection names and operators.
const (
	// CollAuto, in any Collectives field, asks the LogGP auto-tuner to
	// pick the model-minimal algorithm for the world's (P, L, o, g, G).
	CollAuto = splitc.CollAuto
	// OpSum and OpMax are the built-in all-reduce operators.
	OpSum = splitc.OpSum
	OpMax = splitc.OpMax
)

// BarrierAlgorithms lists the registered barrier algorithm names,
// default first.
func BarrierAlgorithms() []string { return splitc.BarrierAlgorithms() }

// BroadcastAlgorithms lists the registered broadcast algorithm names,
// default first.
func BroadcastAlgorithms() []string { return splitc.BroadcastAlgorithms() }

// AllReduceAlgorithms lists the registered all-reduce algorithm names,
// default first.
func AllReduceAlgorithms() []string { return splitc.AllReduceAlgorithms() }

// TuneSelect returns the auto-tuner's model-minimal algorithm per
// primitive for a p-processor machine exchanging bytes-sized operands.
func TuneSelect(p, bytes int, params Params) TuneSelection {
	return tune.Select(p, bytes, params)
}

// TuneBarrierCost is the closed-form LogGP cost model of one barrier
// episode under the named algorithm.
func TuneBarrierCost(alg string, p int, params Params) (Time, error) {
	return tune.BarrierCost(alg, p, tune.ModelOf(params))
}

// TuneBroadcastCost is the cost model of one broadcast episode of a
// bytes-sized payload under the named algorithm.
func TuneBroadcastCost(alg string, p, bytes int, params Params) (Time, error) {
	return tune.BroadcastCost(alg, p, bytes, tune.ModelOf(params))
}

// TuneAllReduceCost is the cost model of one all-reduce episode of
// bytes-sized operands under the named algorithm.
func TuneAllReduceCost(alg string, p, bytes int, params Params) (Time, error) {
	return tune.AllReduceCost(alg, p, bytes, tune.ModelOf(params))
}

// NewProfiler builds a stall-attribution profiler for a procs-processor
// world; attach it with World.Attach before Run.
func NewProfiler(procs int) *Profiler { return prof.New(procs) }

// Calibrate runs the paper's microbenchmarks against a machine and
// returns its effective LogGP characteristics.
func Calibrate(params Params) (Calibration, error) { return calib.Calibrate(params) }

// Suite returns the paper's ten-application benchmark suite in Table 4
// order.
func Suite() []App { return suite.All() }

// AppByName finds an application by its short name: the paper suite
// (for example "radix", "em3d-read", "nowsort") first, then the
// weak-scaling kernels ("scale-radix", "scale-em3d", "scale-pray" and
// their "-blk" coroutine twins).
func AppByName(name string) (App, error) { return exp.ResolveApp(name) }

// Experiments lists every table/figure experiment in paper order.
func Experiments() []Experiment { return exp.Registry() }

// RunExperiment regenerates one paper artifact by id ("table1" … "fig8"),
// planning, executing (on opts.Jobs workers), and rendering in one call.
func RunExperiment(id string, opts Options) (*Table, error) {
	e, err := exp.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opts)
}

// PlanExperiments merges the run matrices of several experiments into
// one deduplicated plan, so runs shared between artifacts (Fig 5b and
// Table 5, Fig 6 and Table 6, every baseline) are declared exactly once.
func PlanExperiments(ids []string, opts Options) (*RunPlan, error) {
	return exp.PlanFor(ids, opts)
}

// NewRunner builds the experiment runner: the paper's baseline machine,
// opts.Jobs workers (0 = GOMAXPROCS), and an optional per-run progress
// callback. Tables rendered from its runs are bit-identical at every job
// count.
func NewRunner(opts Options, onProgress func(RunProgress)) *Runner {
	return exp.DefaultRunner(opts, onProgress)
}

// NewRunStore returns an empty outcome store to execute plans into.
func NewRunStore() *RunStore { return run.NewStore() }

// RenderExperiment builds one artifact's table from a store already
// holding its plan's outcomes (see PlanExperiments / Runner.RunInto).
func RenderExperiment(id string, opts Options, store *RunStore) (*Table, error) {
	return exp.Render(id, opts, store)
}
