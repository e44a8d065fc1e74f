package sim

import "math/rand"

// ClockKind classifies a clock advance for the optional per-processor
// clock hook (see Proc.SetClockHook).
type ClockKind uint8

const (
	// ClockCharge is an explicit Advance: local computation or a
	// communication overhead charge. The layer issuing the charge knows
	// what it was for; the hook only guarantees none goes unseen.
	ClockCharge ClockKind = iota
	// ClockSpin is an AdvanceTo past idle time toward a known future
	// event (for example a message already in flight).
	ClockSpin
	// ClockWake is the jump a parked processor's clock makes when an
	// event wakes it at a future time.
	ClockWake
	// ClockStretch is fault-injected time appended to an explicit charge
	// by the stretch hook (see Proc.SetStretch): slowdown windows and
	// one-off processor delays. Profilers account it separately from the
	// base charge, which layers above report via their own hooks.
	ClockStretch
)

type procState uint8

const (
	statePending procState = iota // never dispatched
	stateRunning                  // the single currently executing processor
	stateReady                    // runnable, waiting in the ready heap
	stateBlocked                  // parked until WakeAt
	stateDone                     // body returned
)

// Proc is one simulated processor, whichever form its body takes. A
// blocking body (Run/RunEach) is an ordinary function the driver runs as
// a coroutine, suspended wherever it gives up the CPU; a state-machine
// body (RunResumables) is stepped inline and has no stack of its own.
// Both forms manipulate virtual time through this handle, and both park
// on the same PollableWait machinery — which is why a program expressed
// either way sees the same virtual timeline at its waits. A Proc is not
// safe for use from outside its body's execution context (the engine
// guarantees only one body runs at a time, so cross-proc data structures
// need no locking, but a Proc handle must not be captured by another
// body); WakeAt is the one exception.
type Proc struct {
	id        int
	eng       *Engine
	clock     Time
	state     procState
	heapIndex int
	// body is what the driver resumes: a state machine, or the coroutine
	// adapter around a blocking body. Nil once the body has finished.
	body Resumable
	// yield suspends a blocking body, handing the driver the processor to
	// run next (see Engine.yieldTo). Nil for state-machine bodies, which
	// have no stack to suspend.
	yield func(next *Proc) bool

	blockReason string
	// rng is built lazily by Rand: a million-processor machine whose
	// bodies never draw random numbers should not pay ~5 KiB of PRNG
	// state per processor up front.
	rng *rand.Rand

	// pendingWakes records WakeAt calls that arrived while the processor
	// was not parked (running, ready, or not yet started). Park consumes
	// them instead of blocking, so no wakeup is ever lost. Kept sorted
	// ascending; typically empty or a single element.
	pendingWakes []Time

	// wait, when non-nil, marks the processor as parked in a pollable
	// wait (see ParkPollable): the dispatcher may drive its wait-loop
	// iterations inline instead of resuming this body.
	wait PollableWait

	// onClock, when set, observes every clock mutation (see SetClockHook).
	onClock func(kind ClockKind, from, to Time)

	// onStretch, when set, may append fault-injected time to every
	// explicit charge (see SetStretch).
	onStretch func(from, d Time) Time
}

func newProc(e *Engine, id int) *Proc {
	return &Proc{
		id:        id,
		eng:       e,
		state:     statePending,
		heapIndex: -1,
	}
}

// ID returns the processor number in [0, P).
func (p *Proc) ID() int { return p.id }

// Engine returns the engine this processor belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Clock returns the processor's current virtual time.
func (p *Proc) Clock() Time { return p.clock }

// Rand returns the processor's deterministic PRNG, constructing it on
// first use. The stream depends only on the engine seed and the
// processor id, so laziness cannot perturb any run's timeline.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.eng.seed*1_000_003 + int64(p.id)*7919 + 1))
	}
	return p.rng
}

// SetClockHook attaches fn to observe every clock mutation of this
// processor: explicit charges, idle spins toward known arrivals, and
// wake-time jumps. Together the observed [from, to) spans tile the
// processor's entire virtual timeline, which is what lets a profiler
// prove time-conservation. fn runs synchronously (zero-length advances
// are skipped) and must not manipulate virtual time. nil detaches.
func (p *Proc) SetClockHook(fn func(kind ClockKind, from, to Time)) { p.onClock = fn }

// SetStretch attaches fn, consulted after every explicit nonzero Advance
// with the charge's [from, from+d) span. The returned extra duration (if
// positive) is appended to the charge and reported to the clock hook as
// ClockStretch. This is the seam fault injection uses for per-processor
// slowdown windows and one-off delays: the charging layer still observes
// its base cost through its own hooks, while the injected extension is
// attributed separately. fn runs synchronously in the processor's body,
// in deterministic order, and must not manipulate virtual time itself.
// nil detaches.
func (p *Proc) SetStretch(fn func(from, d Time) Time) { p.onStretch = fn }

// Advance charges d of local computation (or overhead) to the processor.
// Pure local work never requires a checkpoint: nothing another processor
// does can affect it, because messages are only observed at poll points.
//
//repro:hotpath
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("sim: Advance with negative duration")
	}
	from := p.clock
	p.clock += d
	if p.onClock != nil && d > 0 {
		p.onClock(ClockCharge, from, p.clock)
	}
	if p.onStretch != nil && d > 0 {
		if extra := p.onStretch(from, d); extra > 0 {
			sf := p.clock
			p.clock += extra
			if p.onClock != nil {
				p.onClock(ClockStretch, sf, p.clock)
			}
		}
	}
}

// AdvanceTo moves the clock forward to t if t is in the future.
//
//repro:hotpath
func (p *Proc) AdvanceTo(t Time) {
	if t > p.clock {
		from := p.clock
		p.clock = t
		if p.onClock != nil {
			p.onClock(ClockSpin, from, t)
		}
	}
}

// Checkpoint is a synchronization point: all events due at or before the
// processor's clock are executed, and if any runnable processor now has a
// smaller clock (or equal clock and smaller ID), control transfers to it.
// Communication layers call this at every poll point so that message
// arrivals are observed in virtual-time order.
//
//repro:hotpath
func (p *Proc) Checkpoint() {
	e := p.eng
	if p.yield == nil {
		panic("sim: Checkpoint from a resumable body; use RunDueEvents and continuation waits")
	}
	if e.timeLimit > 0 && p.clock > e.timeLimit {
		panic(timeLimitPanic{})
	}
	switched := false
	for {
		for e.events.len() > 0 && e.events.peek().at <= p.clock {
			ev := e.events.pop()
			e.eventsRun++
			ev.fn(ev.arg, ev.at)
		}
		q := e.ready.peek()
		if q == nil || q.clock > p.clock || (q.clock == p.clock && q.id > p.id) {
			if !switched {
				e.fastChecks++
			}
			return
		}
		e.ready.pop()
		if q.wait != nil {
			// q is parked in a pollable wait: drive one iteration of it
			// from here instead of switching coroutines. q was the heap
			// minimum and p is running with a clock at or past q's, so q
			// sees exactly the state its own checkpoint would have.
			e.stepWait(q)
			// A real hand-off would have suspended p here until it was
			// the minimum again, with interim events draining at the
			// clocks of the processors that actually run — not at p's
			// (p's clock may lie far ahead and would fire future events
			// early). Rejoin the heap and let the dispatcher decide;
			// control returns when p is picked, and the loop then
			// re-drains at p's clock exactly as a resumed Checkpoint
			// would.
			switched = true
			p.state = stateReady
			e.ready.push(p)
			e.dispatch(p)
			continue
		}
		switched = true
		p.state = stateReady
		e.ready.push(p)
		e.yieldTo(p, q)
	}
}

// Park blocks the processor until another entity calls WakeAt on it.
// Callers are responsible for the condition loop: check the awaited
// condition, and Park again on spurious wakeups. Between the caller's
// condition check and the block there is no window in which an event can
// fire unobserved: Park runs no events itself, and events executed during
// the dispatch see the processor already marked blocked, so their WakeAt
// takes effect. Park panics (aborting the simulation with a deadlock
// diagnosis) if nothing can ever wake the processor.
//
//repro:hotpath
func (p *Proc) Park(reason string) {
	if p.yield == nil {
		panic("sim: Park from a resumable body; return the wait from Resume instead")
	}
	if len(p.pendingWakes) > 0 {
		// A wakeup already arrived while we were running or ready; consume
		// the earliest one instead of blocking. Shift in place rather than
		// re-slicing so the backing array's capacity is never abandoned
		// (re-slicing from the front would shrink the capacity one element
		// per wake and force a steady trickle of re-allocations).
		t := p.pendingWakes[0]
		copy(p.pendingWakes, p.pendingWakes[1:])
		p.pendingWakes = p.pendingWakes[:len(p.pendingWakes)-1]
		p.AdvanceTo(t)
		p.Checkpoint()
		return
	}
	p.state = stateBlocked
	p.blockReason = reason
	p.eng.dispatch(p)
}

// PollableWait is a wait loop the engine can drive on the waiter's behalf.
// A processor spin-polling for a condition iterates a fixed shape — run a
// checkpoint, test the condition, service one due unit of work, spin
// forward to known future work, or park — and every step is expressible
// against engine and endpoint state rather than the body's stack. A waiter
// that parks through ParkPollable therefore never needs its body resumed
// just to discover there is nothing to do: whichever body (or the driver)
// is dispatching runs the iterations inline, at the same virtual instants
// and in the same global order, and hands the CPU over only when Ready
// reports the condition holds. The methods must not call Park,
// Checkpoint, or anything else that yields.
type PollableWait interface {
	// Ready reports whether the awaited condition holds; the wait ends.
	Ready(p *Proc) bool
	// PollOne services at most one unit of work due at or before p's
	// clock (for example one arrived message, charging its receive
	// overhead), reporting whether it did.
	PollOne(p *Proc) bool
	// NextWork returns the earliest known future instant at which work
	// for this waiter arrives (for example the head in-flight message),
	// or ok=false when none is known and the processor must block.
	NextWork(p *Proc) (t Time, ok bool)
}

// ParkPollable parks the processor like Park, but registers w so the
// engine can drive the wait inline (see PollableWait). It returns true
// when the engine established Ready and handed the CPU back — the caller
// leaves its wait loop without re-testing — and false when a pending
// wakeup was consumed instead of blocking, in which case the caller loops
// and re-tests exactly as it would after Park.
//
//repro:hotpath
func (p *Proc) ParkPollable(w PollableWait, reason string) bool {
	if p.yield == nil {
		panic("sim: ParkPollable from a resumable body; return the wait from Resume instead")
	}
	if len(p.pendingWakes) > 0 {
		t := p.pendingWakes[0]
		copy(p.pendingWakes, p.pendingWakes[1:])
		p.pendingWakes = p.pendingWakes[:len(p.pendingWakes)-1]
		p.AdvanceTo(t)
		p.Checkpoint()
		return false
	}
	p.state = stateBlocked
	p.blockReason = reason
	p.wait = w
	p.eng.dispatch(p)
	return true
}

// WakeAt makes a parked processor runnable at time t (or at its own clock,
// whichever is later). If the processor is not currently parked, the wakeup
// is recorded and the processor's next Park returns (at time t) instead of
// blocking, so wakeups are never lost. WakeAt is the only Proc method that
// may be called from outside p's own body (from events or other bodies).
//
//repro:hotpath
func (p *Proc) WakeAt(t Time) {
	switch p.state {
	case stateBlocked:
		if t > p.clock {
			from := p.clock
			p.clock = t
			if p.onClock != nil {
				p.onClock(ClockWake, from, t)
			}
		}
		p.state = stateReady
		p.eng.ready.push(p)
	case stateDone:
		// Nothing to do.
	default:
		// Insert into the sorted pending-wake list.
		i := len(p.pendingWakes)
		for i > 0 && p.pendingWakes[i-1] > t {
			i--
		}
		if i < len(p.pendingWakes) && p.pendingWakes[i] == t {
			return // dedup
		}
		//lint:allow hotpathalloc pending-wake list growth; typically empty or one element, capacity is kept
		p.pendingWakes = append(p.pendingWakes, 0)
		copy(p.pendingWakes[i+1:], p.pendingWakes[i:])
		p.pendingWakes[i] = t
	}
}

// SleepUntil parks the processor until virtual time t. Spurious wakeups
// (for example message deliveries) do not end the sleep early.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.clock {
		p.Checkpoint()
		return
	}
	p.eng.ScheduleCall(t, wakeProcEvent, p)
	for p.clock < t {
		p.Park("sleep")
	}
}

// wakeProcEvent is SleepUntil's alarm: a top-level EventFn, so arming a
// sleep allocates nothing (the *Proc rides in the event's arg).
func wakeProcEvent(arg any, at Time) { arg.(*Proc).WakeAt(at) }

// Sleep parks the processor for a duration of virtual time.
func (p *Proc) Sleep(d Time) { p.SleepUntil(p.clock + d) }
