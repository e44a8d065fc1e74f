package main

import (
	"time"

	"repro/internal/apps"
	"repro/internal/apps/scalekern"
)

// scaleW runs the three weak-scaling kernels at P = 10,000 on the
// goroutine-free resumable runtime, one at a time, self-checks on.
type scaleW struct {
	seed int64
}

const (
	scaleProcs  = 10_000
	scaleInput  = 1.0 / 256
	warmupProcs = 32
)

func newScale(seed int64) *scaleW { return &scaleW{seed: seed} }

// setup runs each kernel once at P=32, so one-time costs of the first
// simulation in a process stay out of wall_s.
func (w *scaleW) setup() error {
	for _, a := range scalekern.All() {
		if _, err := a.Run(apps.Config{Procs: warmupProcs, Scale: scaleInput, Seed: w.seed, Verify: true}); err != nil {
			return err
		}
	}
	return nil
}

func (w *scaleW) close() {}

// unreached: scale calls the kernels directly, never the run engine,
// the experiment harness or the service.
func (w *scaleW) unreached() []string {
	return append(append(runMs(paperApps), serveOnly...), "run.", "exp.render_ms", "apps.verify_skew_ns")
}

func (w *scaleW) pass(tr *tracer) (*outcome, error) {
	o := newOutcome()
	root := tr.begin("perfbench.scale", 0, 0)
	var events, switches, saved, messages, simNs, verifyFail int64
	var simTime time.Duration
	var bytesPerProc float64
	start := time.Now()
	for _, a := range scalekern.All() {
		o.attempted++
		span := tr.begin("apps.App.Run "+a.Name(), root, 0)
		before := readRuntime()
		t := time.Now()
		res, err := a.Run(apps.Config{Procs: scaleProcs, Scale: scaleInput, Seed: w.seed, Verify: true})
		d := time.Since(t)
		after := readRuntime()
		tr.end(span)
		simTime += d
		o.layer["apps."+a.Name()+".run_ms"] = ms(d)
		if err != nil {
			o.fail("%s: %v", a.Name(), err)
			continue
		}
		if !res.Verified {
			verifyFail++
			o.fail("%s: self-check did not pass", a.Name())
			continue
		}
		o.ops++
		simNs += int64(res.Elapsed)
		events += res.Sched.EventsRun
		switches += res.Sched.Switches
		saved += res.Sched.SwitchesSaved
		messages += res.Stats.TotalSent()
		bytesPerProc += (after.value(0) - before.value(0)) / scaleProcs / float64(len(scalekern.All()))
	}
	o.wall = time.Since(start)
	tr.end(root)
	tr.stop()

	o.exact["sim.elapsed_ns"] = simNs
	o.exact["sim.events"] = events
	o.exact["sim.switches"] = switches
	o.exact["sim.switches_saved"] = saved
	o.exact["am.messages"] = messages
	o.exact["apps.verify_fail"] = verifyFail
	o.layer["sim.bytes_per_proc"] = bytesPerProc
	if events > 0 {
		o.layer["sim.ns_per_event"] = float64(simTime.Nanoseconds()) / float64(events)
	}
	if messages > 0 {
		o.layer["am.ns_per_msg"] = float64(simTime.Nanoseconds()) / float64(messages)
	}
	return o, nil
}
