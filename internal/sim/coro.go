//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Run executes body once per processor (SPMD style) and returns when every
// processor's body has returned. It returns an error if the simulation
// deadlocks (every processor parked with no pending events) or if any
// processor panics.
func (e *Engine) Run(body func(*Proc)) error {
	bodies := make([]func(*Proc), len(e.procs))
	for i := range bodies {
		bodies[i] = body
	}
	return e.RunEach(bodies)
}

// RunEach is Run with a distinct body per processor. The bodies are
// ordinary blocking functions; each runs as a coroutine under the
// RunResumables driver.
func (e *Engine) RunEach(bodies []func(*Proc)) error {
	if len(bodies) != len(e.procs) {
		return fmt.Errorf("sim: RunEach got %d bodies for %d procs", len(bodies), len(e.procs))
	}
	rs := make([]Resumable, len(bodies))
	for i, body := range bodies {
		rs[i] = &coroutine{p: e.procs[i], body: body}
	}
	return e.RunResumables(rs)
}

// coroutine adapts a blocking body to Resumable. Resume is the next of an
// iter.Pull over the body: the body runs until it gives up the CPU, which
// it does only by yielding the processor the driver must run next
// (Engine.yieldTo) — its own Park, ParkPollable and Checkpoint calls have
// already requeued or parked it. The driver later resumes it exactly where
// it yielded.
type coroutine struct {
	p    *Proc
	body func(*Proc)
	next func() (*Proc, bool)
	stop func()
}

// handedOff is what a coroutine's Resume returns when its body yielded:
// the body has already placed its own processor, and Engine.handoff holds
// the successor. Its own type keeps it distinct from Yield.
var handedOff PollableWait = handoffWait{}

type handoffWait struct{ yieldWait }

// Resume implements Resumable.
func (c *coroutine) Resume(p *Proc) (PollableWait, bool) {
	e := p.eng
	if e.resumed {
		e.switches++
	}
	e.resumed = true
	if c.next == nil {
		// Started lazily, so a run torn down before this processor is
		// first dispatched never creates its coroutine.
		c.next, c.stop = iter.Pull(c.run)
	}
	if to, ok := c.next(); ok {
		e.handoff = to
		return handedOff, false
	}
	if e.failure != nil {
		// The body ended by recording a failure (run recovered it).
		panic(abortPanic{})
	}
	return nil, true
}

// run is the iterator the coroutine pulls from. Failures stay inside the
// coroutine: a panic is recorded with the body's own stack and the
// iterator simply ends, so Resume and stop never see it re-raised. The
// yield is dropped on the way out: it reaches the body closure and all it
// captured, which a Proc kept after the run must not hold alive.
func (c *coroutine) run(yield func(*Proc) bool) {
	defer func() {
		c.p.yield = nil
		if r := recover(); r != nil {
			c.p.eng.recordPanic(c.p, r)
		}
	}()
	c.p.yield = yield
	c.body(c.p)
}
