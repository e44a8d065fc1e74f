package sim

import (
	"fmt"
	"runtime/debug"
)

// Config controls engine construction.
type Config struct {
	// Procs is the number of logical processors (the LogGP "P"). Must be >= 1.
	Procs int
	// Seed feeds each processor's deterministic PRNG. Two runs with equal
	// seeds and equal programs produce identical virtual timelines.
	Seed int64
	// TimeLimit, when nonzero, aborts the run with ErrTimeLimit once any
	// processor's clock passes it. This bounds livelocking programs (the
	// paper's Barnes does not complete at high overhead).
	TimeLimit Time
}

// Engine is a deterministic discrete-event simulator for SPMD programs.
// Create one with New, then call Run, RunEach or RunResumables exactly
// once.
type Engine struct {
	procs     []*Proc
	ready     procHeap
	events    eventHeap
	timeLimit Time

	eventSeq  int64
	liveCount int
	failure   error

	// seed feeds the lazily built per-processor PRNGs (see Proc.Rand).
	seed int64
	// started flips when Run/RunEach/RunResumables begins; engines are
	// single-use.
	started bool
	// stepping is the processor whose Resume call is currently executing,
	// for failure attribution when a body panics.
	stepping *Proc
	// handoff is the processor a coroutine body chose to run next when it
	// gave up the CPU (see yieldTo); the driver resumes it directly.
	handoff *Proc
	// resumed flips at the first coroutine resume; every later one is a
	// hand-off between bodies and counts as a switch.
	resumed bool

	// Counters exposed for scheduler diagnostics and ablation benchmarks.
	switches    int64 // coroutine hand-offs performed
	eventsRun   int64 // events executed
	fastChecks  int64 // checkpoints that kept running without a switch
	fastParks   int64 // parks whose dispatch picked the parker itself
	inlineSteps int64 // pollable-wait iterations the dispatcher ran inline
}

// abortPanic unwinds a processor body when the engine aborts.
type abortPanic struct{}

// ErrTimeLimit is returned by Run when Config.TimeLimit was exceeded.
var ErrTimeLimit = fmt.Errorf("sim: virtual time limit exceeded")

// timeLimitPanic carries ErrTimeLimit out of a checkpoint.
type timeLimitPanic struct{}

// New builds an engine with cfg.Procs processors, all at virtual time zero.
func New(cfg Config) *Engine {
	if cfg.Procs < 1 {
		panic(fmt.Sprintf("sim: Config.Procs must be >= 1, got %d", cfg.Procs))
	}
	e := &Engine{timeLimit: cfg.TimeLimit, seed: cfg.Seed}
	e.procs = make([]*Proc, cfg.Procs)
	for i := range e.procs {
		e.procs[i] = newProc(e, i)
	}
	return e
}

// P returns the number of processors.
func (e *Engine) P() int { return len(e.procs) }

// Proc returns processor i. It is mainly useful for inspecting clocks after
// a run; during a run, program code receives its own *Proc.
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// Switches reports how many coroutine hand-offs the scheduler performed:
// resumes of a blocking body other than the run's first.
func (e *Engine) Switches() int64 { return e.switches }

// EventsRun reports how many discrete events the engine executed.
func (e *Engine) EventsRun() int64 { return e.eventsRun }

// FastCheckpoints reports checkpoints resolved without a coroutine switch.
func (e *Engine) FastCheckpoints() int64 { return e.fastChecks }

// SwitchesSaved reports scheduler decisions resolved without a coroutine
// hand-off that the pre-fast-path scheduler would have paid one for: parks
// whose dispatch picked the parker itself (an event executed during the
// dispatch woke it, and it was the next runnable), plus every pollable-wait
// iteration the dispatcher drove inline instead of resuming the waiter's
// body (see Proc.ParkPollable).
func (e *Engine) SwitchesSaved() int64 { return e.fastParks + e.inlineSteps }

// MaxClock returns the largest processor clock, i.e. the parallel makespan.
func (e *Engine) MaxClock() Time {
	var mx Time
	for _, p := range e.procs {
		if p.clock > mx {
			mx = p.clock
		}
	}
	return mx
}

// Fail aborts the simulation with err; the Run call returns it. It
// may be called from an event or from a processor body — the layer that
// detects an unrecoverable protocol condition (for example a message
// exceeding its retransmission cap) uses it to surface a typed error
// instead of letting the run hang. Fail does not return: it unwinds the
// caller to the driver, which tears the run down. If a failure is already
// recorded, the first one wins.
func (e *Engine) Fail(err error) {
	e.recordFailure(err)
	panic(abortPanic{})
}

// recordFailure stores err as the simulation's failure unless one is
// already recorded: the first failure wins, later ones (secondary panics
// raised while bodies unwind) must not mask the root cause.
func (e *Engine) recordFailure(err error) {
	if e.failure == nil {
		e.failure = err
	}
}

// recordPanic turns a panic recovered from p's body (or from the driver,
// p == nil) into the run's failure. An abortPanic carries nothing: the
// failure that raised it is already recorded.
func (e *Engine) recordPanic(p *Proc, r any) {
	switch r.(type) {
	case abortPanic:
	case timeLimitPanic:
		e.recordFailure(fmt.Errorf("sim: proc %d at %v: %w", p.id, p.clock, ErrTimeLimit))
	default:
		if p == nil {
			e.recordFailure(fmt.Errorf("sim: driver panicked: %v\n%s", r, debug.Stack()))
			return
		}
		e.recordFailure(fmt.Errorf("sim: proc %d panicked at %v: %v\n%s", p.id, p.clock, r, debug.Stack()))
	}
}

// EventFn is the typed form of a scheduled event: fn(arg, at) runs at
// virtual time `at` with the arg it was scheduled with. Top-level
// functions passed to ScheduleCall with a pointer-shaped arg make the
// schedule path allocation-free, where a capturing closure would heap-
// allocate per event.
type EventFn func(arg any, at Time)

// ScheduleAt registers fn to run at virtual time t. Events run in (t, FIFO)
// order, inside whichever body (or the driver) reaches them first; they
// must not block and must not call Park or Checkpoint. Events typically
// deposit a message and call Proc.WakeAt.
//
// The closure fn is one heap allocation at the call site; hot paths use
// ScheduleCall instead.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	e.ScheduleCall(t, runThunk, fn)
}

// runThunk adapts a ScheduleAt closure to the typed event scheme.
func runThunk(arg any, _ Time) { arg.(func())() }

// ScheduleCall registers fn(arg, t) to run at virtual time t, under the
// same (t, FIFO) ordering and the same restrictions as ScheduleAt.
// Event records live by value in the engine's heap, so once the heap has
// grown to the workload's high-water mark the call allocates nothing:
// this is the hot path the Active Message layer schedules deliveries and
// credit returns through.
//
//repro:hotpath
func (e *Engine) ScheduleCall(t Time, fn EventFn, arg any) {
	e.eventSeq++
	e.events.push(event{at: t, seq: e.eventSeq, fn: fn, arg: arg})
}

// next pops the runnable processor with the smallest clock, executing any
// events due at or before that clock first (events may make earlier
// processors runnable). Returns nil when nothing can run.
//
//repro:hotpath
func (e *Engine) next() *Proc {
	for {
		q := e.ready.peek()
		for e.events.len() > 0 && (q == nil || e.events.peek().at <= q.clock) {
			ev := e.events.pop()
			e.eventsRun++
			ev.fn(ev.arg, ev.at)
			q = e.ready.peek()
		}
		if q != nil {
			return e.ready.pop()
		}
		if e.events.len() == 0 {
			return nil
		}
	}
}

func (e *Engine) deadlockError() error {
	msg := "sim: deadlock — all processors parked and no events pending\n"
	for _, p := range e.procs {
		if p.state == stateBlocked {
			msg += fmt.Sprintf("  proc %d blocked at %v: %s\n", p.id, p.clock, p.blockReason)
		}
	}
	return fmt.Errorf("%s", msg)
}

// yieldTo hands the CPU from the running coroutine body `from` to `to`:
// the body yields `to` to the driver, which resumes it at once, and `from`
// stays suspended until the driver resumes it in turn. The caller has
// already put `from` back in the ready heap or parked it. A false yield
// means the driver is tearing the run down: unwind the body.
func (e *Engine) yieldTo(from, to *Proc) {
	if !from.yield(to) {
		panic(abortPanic{})
	}
}

// dispatch is the in-body scheduler loop, entered whenever a coroutine
// body gives up the CPU: `from` has blocked (Park, ParkPollable) or
// rejoined the ready heap (Checkpoint). It keeps choosing the next
// runnable entity, driving pollable waits inline (stepWait) without
// resuming their bodies, until either `from` itself becomes the next
// runnable again (fast path: keep executing, no coroutine switch — the
// schedule is identical, next() already made the choice) or a processor
// with a real continuation must run, in which case `from` yields it to the
// driver.
//
//repro:hotpath
func (e *Engine) dispatch(from *Proc) {
	for {
		next := e.next()
		if next == nil {
			e.recordFailure(e.deadlockError())
			panic(abortPanic{})
		}
		if next.wait != nil {
			// The chosen processor is parked in a pollable wait: run one
			// wait iteration right here instead of bouncing the CPU to its
			// body and back. stepWait leaves it runnable again or
			// re-blocked, and the loop re-decides.
			e.stepWait(next)
			continue
		}
		if next == from {
			e.fastParks++
			from.state = stateRunning
			return
		}
		e.yieldTo(from, next)
		return
	}
}

// stepWait executes one iteration of a pollable wait on behalf of the
// blocked processor p, which the dispatcher just popped as the minimum-
// clock runnable. The iteration mirrors the waiter's own loop exactly —
// time-limit check, condition, poll one due message, spin toward a known
// arrival, park again — at the same virtual instants and in the same
// global order its body would have run them; only the coroutine hand-off
// is elided. Events due at or before p's clock have already run
// (next() executes them before popping), matching the Checkpoint at the
// top of the waiter's loop. Branches that advance p's clock finish with
// drainEvents, reproducing the drain the next loop-top Checkpoint would
// have performed at the advanced clock before any switch decision: a
// Checkpoint-driven run executes every due event — including ones, such
// as window-credit returns, whose timestamps lie beyond other processors'
// clocks — before the scheduler picks the minimum again, and waiters'
// conditions legitimately observe those effects.
//
//repro:hotpath
func (e *Engine) stepWait(p *Proc) {
	if e.timeLimit > 0 && p.clock > e.timeLimit {
		// Same failure the waiter's own Checkpoint would have raised,
		// attributed to the waiter, not to the body driving it.
		e.recordFailure(fmt.Errorf("sim: proc %d at %v: %w", p.id, p.clock, ErrTimeLimit))
		panic(abortPanic{})
	}
	e.inlineSteps++
	// p stays stateBlocked for the duration of the step: its body really
	// is parked, so if the step panics (for example a handler violating
	// discipline), the teardown still unwinds it. No WakeAt can target p
	// mid-step — wakes come only from events, and events never run inside
	// a step — so the blocked state is never observed by a waker.
	p.state = stateBlocked
	w := p.wait
	if w.Ready(p) {
		// Condition holds: leave the wait. p stays runnable; the dispatch
		// loop re-pops it and resumes its body (fast path when p is the
		// dispatcher's own processor).
		p.wait = nil
		p.state = stateReady
		e.ready.push(p)
		return
	}
	if w.PollOne(p) {
		p.state = stateReady
		e.ready.push(p)
		e.drainEvents(p.clock)
		return
	}
	if t, ok := w.NextWork(p); ok {
		p.AdvanceTo(t)
		p.state = stateReady
		e.ready.push(p)
		e.drainEvents(p.clock)
		return
	}
	// Park again — the same pending-wake consumption Park performs.
	if len(p.pendingWakes) > 0 {
		t := p.pendingWakes[0]
		copy(p.pendingWakes, p.pendingWakes[1:])
		p.pendingWakes = p.pendingWakes[:len(p.pendingWakes)-1]
		p.AdvanceTo(t)
		p.state = stateReady
		e.ready.push(p)
		e.drainEvents(p.clock)
		return
	}
	p.state = stateBlocked
}

// drainEvents runs every event due at or before limit — the event loop of
// a Checkpoint at that clock. Waking events see their target processors in
// the same states a waiter's own Checkpoint would have shown them (the
// stepped processor sits ready in the heap, so wakes for it accumulate as
// pending, exactly as for a running processor).
//
//repro:hotpath
func (e *Engine) drainEvents(limit Time) {
	for e.events.len() > 0 && e.events.peek().at <= limit {
		ev := e.events.pop()
		e.eventsRun++
		ev.fn(ev.arg, ev.at)
	}
}
