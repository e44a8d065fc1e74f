package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/run"
)

// sweepW is the paper's own experiment: the quick Fig. 5b plan (ten
// apps at P=32, scale 1/256, Δo ∈ {0, 5, 100} µs, verified baselines)
// executed by run.Runner on the bounded pool and rendered by exp.Render.
type sweepW struct {
	o    exp.Options
	plan *run.Plan
	// refs holds each app's unverified baseline, simulated once per
	// process for checkZeroPoints.
	refs map[string]run.Outcome
}

func newSweep(seed int64) *sweepW {
	return &sweepW{o: exp.Options{Procs: 32, Scale: 1.0 / 256, Seed: seed, Quick: true, Verify: true, Jobs: maxProcs}}
}

func (w *sweepW) setup() error {
	p, err := exp.PlanFor([]string{"fig5b"}, w.o)
	w.plan = p
	return err
}

func (w *sweepW) close() {}

// unreached: sweep never calls the service or the analytic engine, and
// runs no scale kernel.
func (w *sweepW) unreached() []string {
	return append(append(runMs(scaleKernels), serveOnly...), "sim.bytes_per_proc")
}

func (w *sweepW) pass(tr *tracer) (*outcome, error) {
	o := newOutcome()
	root := tr.begin("perfbench.sweep", 0, 0)
	runSpan := tr.begin("run.Runner.Run", root, 0)
	var execSum time.Duration
	perApp := map[string]time.Duration{}
	executed, cached := 0, 0
	// OnProgress calls arrive one at a time; Run returning orders them
	// before the reads below.
	r := exp.DefaultRunner(w.o, func(p run.Progress) {
		if p.Cached {
			cached++
			return
		}
		executed++
		execSum += p.Wall
		perApp[p.Spec.App] += p.Wall
		tr.record("apps.App.Run "+p.Spec.App, runSpan, 0, p.Wall)
	})
	start := time.Now()
	st, runErr := r.Run(w.plan)
	runWall := time.Since(start)
	tr.end(runSpan)
	renderSpan := tr.begin("exp.Render", root, 0)
	renderStart := time.Now()
	tab, renderErr := exp.Render("fig5b", w.o, st)
	render := time.Since(renderStart)
	tr.end(renderSpan)
	o.wall = time.Since(start)
	tr.end(root)
	tr.stop()

	specs := w.plan.Specs()
	o.attempted = len(specs) + 1
	o.ops = executed
	if runErr != nil {
		o.fail("run.Runner.Run: %v", runErr)
	}
	if renderErr != nil {
		o.fail("exp.Render: %v", renderErr)
	} else if len(tab.Rows) != 3 || len(tab.Columns) != len(paperApps)+1 {
		o.fail("fig5b table is %d×%d, want 3×%d", len(tab.Rows), len(tab.Columns), len(paperApps)+1)
	}

	var events, switches, saved, messages, simNs, verifyFail int64
	zeroPoints := map[string]run.Spec{}
	for _, s := range specs {
		out, ok := st.Get(s)
		if !ok || out.Err != nil {
			o.fail("%v: missing or failed: %v", s, out.Err)
			continue
		}
		simNs += int64(out.Res.Elapsed)
		events += out.Res.Sched.EventsRun
		switches += out.Res.Sched.Switches
		saved += out.Res.Sched.SwitchesSaved
		if out.Res.Stats != nil {
			messages += out.Res.Stats.TotalSent()
		}
		if s.IsBaseline() && !out.Res.Verified {
			verifyFail++
			o.fail("%v: self-check did not pass", s)
		}
		if s.Knob == core.KnobO && s.Value == 0 {
			zeroPoints[s.App] = s
		}
	}
	if len(zeroPoints) != len(paperApps) {
		o.fail("plan has Δo=0 points for %d apps, want %d", len(zeroPoints), len(paperApps))
	}
	skew := w.checkZeroPoints(o, st, zeroPoints, tr)

	o.exact["sim.elapsed_ns"] = simNs
	o.exact["sim.events"] = events
	o.exact["sim.switches"] = switches
	o.exact["sim.switches_saved"] = saved
	o.exact["am.messages"] = messages
	o.exact["run.executed"] = int64(executed)
	o.exact["run.deduplicated"] = int64(w.plan.Adds()-w.plan.Size()) + int64(cached)
	o.exact["apps.verify_fail"] = verifyFail
	o.exact["apps.verify_skew_ns"] = skew

	o.layer["run.exec_ms"] = ms(execSum)
	o.layer["run.pool_busy_frac"] = execSum.Seconds() / (float64(w.o.Jobs) * runWall.Seconds())
	o.layer["exp.render_ms"] = ms(render)
	for app, d := range perApp {
		o.layer["apps."+app+".run_ms"] = ms(d)
	}
	if events > 0 {
		o.layer["sim.ns_per_event"] = float64(execSum.Nanoseconds()) / float64(events)
	}
	if messages > 0 {
		o.layer["am.ns_per_msg"] = float64(execSum.Nanoseconds()) / float64(messages)
	}
	return o, nil
}

// checkZeroPoints checks, outside the timed region, that every Δo=0
// point reproduces the unmodified machine exactly. The plan's baselines
// run the apps' self-checks, which communicate inside simulated time, so
// the reference is the same baseline without the self-check; the gap
// between the verified and unverified baselines is returned (summed over
// the apps, in simulated ns) so that it stays visible.
func (w *sweepW) checkZeroPoints(o *outcome, st *run.Store, zero map[string]run.Spec, tr *tracer) int64 {
	apps := sortedKeys(zero)
	if w.refs == nil {
		span := tr.begin("check.unverified_baselines", 0, 0)
		p := run.NewPlan()
		for _, app := range apps {
			p.AddBaseline(app, w.o.Procs, w.o.Scale, w.o.Seed, false)
		}
		refs, _ := exp.DefaultRunner(w.o, nil).Run(p) // failures are per-spec outcomes, checked below
		tr.end(span)
		w.refs = map[string]run.Outcome{}
		for _, app := range apps {
			w.refs[app], _ = refs.Get(run.Baseline(app, w.o.Procs, w.o.Scale, w.o.Seed, false))
		}
	}

	var skew int64
	for _, app := range apps {
		o.attempted++
		ref := w.refs[app]
		pt, err := st.Point(zero[app])
		base, berr := st.Result(zero[app].BaselineSpec(true))
		switch {
		case ref.Err != nil:
			o.fail("%s unverified baseline: %v", app, ref.Err)
		case err != nil:
			o.fail("%s Δo=0: %v", app, err)
		case berr != nil:
			o.fail("%s verified baseline: %v", app, berr)
		case pt.Elapsed != ref.Res.Elapsed:
			o.fail("%s Δo=0 elapsed %v differs from the unmodified machine's %v", app, pt.Elapsed, ref.Res.Elapsed)
		}
		if ref.Err == nil && berr == nil {
			skew += int64(base.Elapsed - ref.Res.Elapsed)
		}
	}
	return skew
}
