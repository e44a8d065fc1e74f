package sim

import "fmt"

// Resumable is a processor body as the driver sees it: the engine calls
// Resume repeatedly on the owning processor's behalf. Each call runs the
// body forward — charging time, sending messages, mutating its own state
// — until the body either finishes (done=true) or must wait (wait
// non-nil). A state-machine body keeps everything it needs between calls
// in its own struct and never owns a stack across calls, which is what
// lets a single OS thread drive a million simulated processors; RunEach
// wraps a blocking body in the same interface (see coroutine).
//
// Contract:
//
//   - Resume runs on the driver's goroutine with the processor in
//     stateRunning. A state-machine body must not call Park,
//     ParkPollable, or Checkpoint (or anything that polls through them):
//     those suspend a stack the body does not have. Poll points are
//     expressed with Proc.RunDueEvents plus the messaging layer's
//     continuation primitives instead.
//   - The returned wait is driven by the engine exactly as a
//     ParkPollable wait would be (see Engine.stepWait): the next Resume
//     call happens only once the wait's Ready condition has been
//     established, with every event due by the processor's clock already
//     executed. Bodies may therefore treat re-entry as "the wait
//     completed", just as a blocking body treats a true return from
//     ParkPollable.
//   - Returning (nil, false) is a contract violation and panics: a body
//     that cannot finish must name what it is waiting for, or the
//     scheduler could neither run nor retire it.
type Resumable interface {
	Resume(p *Proc) (wait PollableWait, done bool)
}

// WaitReasoner optionally labels a PollableWait for deadlock diagnostics:
// a resumable processor parked on a wait that implements it reports the
// label as its block reason (blocking bodies pass an explicit string to
// Park/ParkPollable instead).
type WaitReasoner interface {
	WaitReason() string
}

// RunResumables executes one Resumable body per processor and returns
// when all have finished, entirely on the caller's goroutine: the driver
// loop picks the minimum-(clock, id) runnable processor, steps parked
// waits inline (stepWait), and calls Resume for processors whose wait has
// completed. It returns an error if the simulation deadlocks (every
// processor parked with no pending events), a body panics, a time limit
// is exceeded, or Fail is called. See DESIGN.md §11 for why a program
// sees the identical virtual timeline whichever body form it takes.
func (e *Engine) RunResumables(bodies []Resumable) error {
	if len(bodies) != len(e.procs) {
		return fmt.Errorf("sim: RunResumables got %d bodies for %d procs", len(bodies), len(e.procs))
	}
	if e.started {
		return fmt.Errorf("sim: engine already started; New an engine per run")
	}
	e.started = true
	e.liveCount = len(e.procs)
	for i, p := range e.procs {
		p.body = bodies[i]
		p.state = stateReady
		e.ready.push(p)
	}
	e.drive()
	return e.failure
}

// drive is the scheduler loop, the only one. It terminates when every
// body is done, when the simulation deadlocks, or when a failure aborts
// the run (Engine.Fail, a time limit, or a panicking body); on the way
// out it unwinds every body still suspended.
func (e *Engine) drive() {
	defer func() {
		if r := recover(); r != nil {
			e.recordPanic(e.stepping, r)
		}
		e.teardown()
	}()
	for {
		p := e.handoff
		if p != nil {
			// A blocking body chose its successor; dispatch already
			// ran the events and waits due before it.
			e.handoff = nil
		} else if p = e.next(); p == nil {
			if e.liveCount > 0 {
				e.recordFailure(e.deadlockError())
			}
			return
		} else if p.wait != nil {
			// Parked in a pollable wait: drive one iteration, exactly as
			// dispatch does inside a blocking body.
			e.stepWait(p)
			continue
		}
		e.resumeStep(p)
	}
}

// teardown retires every unfinished processor after the run ends early,
// unwinding each suspended blocking body through its coroutine's stop.
func (e *Engine) teardown() {
	for _, p := range e.procs {
		if p.state == stateDone {
			continue
		}
		p.state = stateDone
		if c, ok := p.body.(*coroutine); ok && c.stop != nil {
			c.stop()
		}
		p.body = nil
	}
}

// resumeStep runs one Resume call on the minimum-clock processor and
// parks or retires it according to the result. The park leaves the
// processor in the ready heap with its wait registered — the same shape
// WakeAt produces — so the driver's next pop runs the first wait
// iteration (condition test, one poll, spin-forward, or true block) at
// the same point a blocking wait loop would have run it after its
// opening Checkpoint.
//
//repro:hotpath
func (e *Engine) resumeStep(p *Proc) {
	if _, blocking := p.body.(*coroutine); !blocking && e.timeLimit > 0 && p.clock > e.timeLimit {
		// The check a blocking body would have hit at its next
		// Checkpoint; state machines reach it between Resume calls.
		e.recordFailure(fmt.Errorf("sim: proc %d at %v: %w", p.id, p.clock, ErrTimeLimit))
		panic(abortPanic{})
	}
	p.state = stateRunning
	e.stepping = p
	w, done := p.body.Resume(p)
	e.stepping = nil
	if done {
		p.state = stateDone
		p.body = nil
		e.liveCount--
		return
	}
	if w == handedOff {
		// A blocking body parked or requeued itself before yielding.
		return
	}
	if w == nil {
		panic(fmt.Sprintf("sim: proc %d Resume returned neither a wait nor done", p.id))
	}
	p.wait = w
	if r, ok := w.(WaitReasoner); ok {
		p.blockReason = r.WaitReason()
	} else {
		p.blockReason = "resumable wait"
	}
	p.state = stateReady
	e.ready.push(p)
}

// RunDueEvents executes every pending event due at or before the
// processor's clock. It is the event half of a Checkpoint — the half a
// resumable body is allowed to use: deliveries and credit returns
// materialize, parked processors are woken (their wakes queue as
// pending), but no control transfer happens. Continuation-mode poll
// points call this before inspecting their inboxes.
//
//repro:hotpath
func (p *Proc) RunDueEvents() { p.eng.drainEvents(p.clock) }

// Yield is the state-machine Checkpoint: a wait that is ready the
// moment it is tested. Returning it from Resume parks the processor in
// the ready heap at its current clock, so every processor whose clock is
// lower runs first and the body is re-entered immediately afterwards —
// the scheduling effect of a blocking Checkpoint, without a stack to
// switch away from. Spin loops (for example a lock retry) must yield
// this way between iterations or peers could never make the awaited
// progress.
var Yield PollableWait = yieldWait{}

type yieldWait struct{}

func (yieldWait) Ready(*Proc) bool            { return true }
func (yieldWait) PollOne(*Proc) bool          { return false }
func (yieldWait) NextWork(*Proc) (Time, bool) { return 0, false }
func (yieldWait) WaitReason() string          { return "sim: yield" }
