package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/allocpin"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		us   float64
		want Time
	}{
		{1.0, 1000},
		{2.9, 2900},
		{0.0, 0},
		{5.8, 5800},
		{1.8, 1800},
		{-1.0, -1000},
	}
	for _, c := range cases {
		if got := FromMicros(c.us); got != c.want {
			t.Errorf("FromMicros(%v) = %d, want %d", c.us, got, c.want)
		}
	}
	if got := Time(2900).Micros(); got != 2.9 {
		t.Errorf("Micros() = %v, want 2.9", got)
	}
	if got := Time(3 * Second).Seconds(); got != 3.0 {
		t.Errorf("Seconds() = %v, want 3", got)
	}
	if got := Time(1500 * Microsecond).Millis(); got != 1.5 {
		t.Errorf("Millis() = %v, want 1.5", got)
	}
}

func TestTimeString(t *testing.T) {
	if s := (2 * Second).String(); !strings.Contains(s, "s") {
		t.Errorf("String() = %q", s)
	}
	if s := (5 * Microsecond).String(); !strings.Contains(s, "µs") {
		t.Errorf("String() = %q", s)
	}
	if s := (5 * Millisecond).String(); !strings.Contains(s, "ms") {
		t.Errorf("String() = %q", s)
	}
}

func TestSingleProcAdvance(t *testing.T) {
	e := New(Config{Procs: 1})
	err := e.Run(func(p *Proc) {
		p.Advance(10 * Microsecond)
		p.Advance(5 * Microsecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Proc(0).Clock(); got != 15*Microsecond {
		t.Errorf("clock = %v, want 15µs", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	e := New(Config{Procs: 1})
	err := e.Run(func(p *Proc) { p.Advance(-1) })
	if err == nil {
		t.Fatal("expected error from negative Advance")
	}
}

func TestNewBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Procs=0")
		}
	}()
	New(Config{Procs: 0})
}

func TestMinClockScheduling(t *testing.T) {
	// Two processors append to a shared log at checkpoints; the log must be
	// ordered by virtual time regardless of goroutine interleaving.
	var log []string
	e := New(Config{Procs: 2})
	err := e.Run(func(p *Proc) {
		step := Time(10)
		if p.ID() == 1 {
			step = 7
		}
		for i := 0; i < 5; i++ {
			p.Advance(step)
			p.Checkpoint()
			log = append(log, fmt.Sprintf("p%d@%d", p.ID(), p.Clock()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Extract times; they must be globally non-decreasing.
	var prev Time = -1
	for _, entry := range log {
		var id int
		var at Time
		fmt.Sscanf(entry, "p%d@%d", &id, &at)
		if at < prev {
			t.Fatalf("log out of order: %v", log)
		}
		prev = at
	}
}

func TestEventsExecuteInOrder(t *testing.T) {
	var fired []Time
	e := New(Config{Procs: 1})
	err := e.Run(func(p *Proc) {
		e.ScheduleAt(30, func() { fired = append(fired, 30) })
		e.ScheduleAt(10, func() { fired = append(fired, 10) })
		e.ScheduleAt(20, func() { fired = append(fired, 20) })
		p.Advance(100)
		p.Checkpoint()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 20 || fired[2] != 30 {
		t.Errorf("events fired %v, want [10 20 30]", fired)
	}
}

func TestEventFIFOAtSameInstant(t *testing.T) {
	var fired []int
	e := New(Config{Procs: 1})
	err := e.Run(func(p *Proc) {
		for i := 0; i < 5; i++ {
			i := i
			e.ScheduleAt(10, func() { fired = append(fired, i) })
		}
		p.Advance(10)
		p.Checkpoint()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(fired) || len(fired) != 5 {
		t.Errorf("same-instant events fired %v, want FIFO [0..4]", fired)
	}
}

func TestParkAndWake(t *testing.T) {
	// Proc 1 parks; proc 0 schedules an event that wakes it at t=50.
	var wokeAt Time
	e := New(Config{Procs: 2})
	err := e.Run(func(p *Proc) {
		if p.ID() == 0 {
			target := e.Proc(1)
			e.ScheduleAt(50, func() { target.WakeAt(50) })
			p.Advance(100)
			p.Checkpoint()
			return
		}
		p.Park("waiting for proc 0")
		wokeAt = p.Clock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if wokeAt != 50 {
		t.Errorf("woke at %v, want 50", wokeAt)
	}
}

func TestWakeAtDoesNotRewindClock(t *testing.T) {
	e := New(Config{Procs: 2})
	err := e.Run(func(p *Proc) {
		if p.ID() == 0 {
			target := e.Proc(1)
			e.ScheduleAt(10, func() { target.WakeAt(10) })
			p.Advance(100)
			p.Checkpoint()
			return
		}
		p.Advance(40) // clock ahead of the wake time
		p.Park("wait")
		if p.Clock() != 40 {
			t.Errorf("clock rewound to %v", p.Clock())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSleepUntil(t *testing.T) {
	e := New(Config{Procs: 1})
	err := e.Run(func(p *Proc) {
		p.SleepUntil(77)
		if p.Clock() != 77 {
			t.Errorf("clock after sleep = %v, want 77", p.Clock())
		}
		p.SleepUntil(10) // in the past: no-op
		if p.Clock() != 77 {
			t.Errorf("clock after past sleep = %v, want 77", p.Clock())
		}
		p.Sleep(3)
		if p.Clock() != 80 {
			t.Errorf("clock after Sleep(3) = %v, want 80", p.Clock())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := New(Config{Procs: 2})
	err := e.Run(func(p *Proc) {
		p.Park("never woken")
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), "never woken") {
		t.Errorf("deadlock error missing park reason: %v", err)
	}
}

func TestPanicPropagation(t *testing.T) {
	e := New(Config{Procs: 4})
	err := e.Run(func(p *Proc) {
		p.Advance(Time(p.ID()) * 10)
		p.Checkpoint()
		if p.ID() == 2 {
			panic("boom")
		}
		p.Park("stranded by the panic")
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic error, got %v", err)
	}
	if !strings.Contains(err.Error(), "proc 2") {
		t.Errorf("error should identify proc 2: %v", err)
	}
}

func TestFirstFailureWins(t *testing.T) {
	// Two processors fail concurrently: proc 0 panics first (it is the
	// first to reach its panic site in virtual-time order), and proc 1's
	// body defers a second panic into the abort unwind. The recorded
	// failure must be the root cause, not whichever unwind finished last.
	e := New(Config{Procs: 2})
	err := e.Run(func(p *Proc) {
		if p.ID() == 1 {
			defer func() {
				// Runs while unwinding via the abort path; must not
				// overwrite the root-cause failure.
				panic("secondary failure during unwind")
			}()
			p.Park("waiting forever")
		}
		p.Advance(5)
		p.Checkpoint()
		panic("root cause")
	})
	if err == nil || !strings.Contains(err.Error(), "root cause") {
		t.Fatalf("expected root-cause failure to win, got %v", err)
	}
	if strings.Contains(err.Error(), "secondary failure") {
		t.Errorf("secondary unwind panic masked the root cause: %v", err)
	}
}

// TestCoroutineTeardown ends a P=8 run of blocking bodies in each way a
// run can fail, with bodies suspended at every kind of yield point (parked,
// requeued mid-Checkpoint, never started) and one body deferring a
// secondary panic into its unwind. Run must return the root cause, and
// every coroutine must be gone afterwards: a suspended body that was not
// unwound would leak its goroutine.
func TestCoroutineTeardown(t *testing.T) {
	errBoom := errors.New("boom")
	cases := []struct {
		name  string
		who   int // the processor that fails; -1: all park
		limit Time
		fail  func(p *Proc)
		want  string
		is    error // the sentinel the error wraps, if any
	}{
		{"fail-before-peers-start", 0, 0, func(p *Proc) { p.Engine().Fail(errBoom) }, "boom", errBoom},
		{"fail", 3, 0, func(p *Proc) { p.Engine().Fail(errBoom) }, "boom", errBoom},
		{"time-limit", 3, 100, func(p *Proc) {
			for {
				p.Advance(50)
				p.Checkpoint()
			}
		}, "proc 3 at", ErrTimeLimit},
		{"panic", 3, 0, func(*Proc) { panic("root cause") }, "proc 3 panicked", nil},
		{"deadlock", -1, 0, nil, "deadlock", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New(Config{Procs: 8, TimeLimit: c.limit})
			err := e.Run(func(p *Proc) {
				if p.ID() == 5 {
					defer func() { panic("secondary failure during unwind") }()
				}
				p.Advance(Time(p.ID()))
				p.Checkpoint()
				if p.ID() == c.who {
					c.fail(p)
				}
				p.Park("waiting for the failure")
			})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want the root cause (%q)", err, c.want)
			}
			if strings.Contains(err.Error(), "secondary") {
				t.Errorf("secondary unwind panic masked the root cause: %v", err)
			}
			if c.is != nil && !errors.Is(err, c.is) {
				t.Errorf("err = %v, want one wrapping %v", err, c.is)
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("%d goroutines before the run, %d after: a suspended body leaked", before, after)
			}
		})
	}
}

func TestScheduleAndSleepZeroAlloc(t *testing.T) {
	// The pooled event path: once the event heap has reached its
	// high-water mark, arming a sleep (ScheduleCall + park + fast-path
	// wake) must not allocate. Measured from inside the body, where the
	// steady state lives; only allocations whose stack passes through
	// this package count.
	e := New(Config{Procs: 1})
	var sites []string
	err := e.Run(func(p *Proc) {
		for i := 0; i < 100; i++ { // warm the event heap
			p.Sleep(10)
		}
		sites = allocpin.Sites([]string{"repro/internal/sim"}, func() {
			for i := 0; i < 1000; i++ {
				p.Sleep(10)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		t.Errorf("steady-state Sleep path allocated: %s", s)
	}
}

func TestRunEachDistinctBodies(t *testing.T) {
	e := New(Config{Procs: 3})
	got := make([]int, 3)
	bodies := make([]func(*Proc), 3)
	for i := range bodies {
		i := i
		bodies[i] = func(p *Proc) { got[p.ID()] = i * 100 }
	}
	if err := e.RunEach(bodies); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*100 {
			t.Errorf("proc %d ran wrong body: %d", i, v)
		}
	}
}

func TestRunEachLengthMismatch(t *testing.T) {
	e := New(Config{Procs: 2})
	if err := e.RunEach([]func(*Proc){func(*Proc) {}}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Time, int64, int64) {
		e := New(Config{Procs: 8, Seed: 42})
		err := e.Run(func(p *Proc) {
			rng := p.Rand()
			for i := 0; i < 200; i++ {
				p.Advance(Time(rng.Intn(20) + 1))
				if rng.Intn(3) == 0 {
					target := e.Proc(rng.Intn(8))
					at := p.Clock() + Time(rng.Intn(50))
					e.ScheduleAt(at, func() { target.WakeAt(at) })
				}
				p.Checkpoint()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.MaxClock(), e.Switches(), e.EventsRun()
	}
	c1, s1, ev1 := run()
	c2, s2, ev2 := run()
	if c1 != c2 || s1 != s2 || ev1 != ev2 {
		t.Errorf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", c1, s1, ev1, c2, s2, ev2)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	final := func(seed int64) Time {
		e := New(Config{Procs: 4, Seed: seed})
		if err := e.Run(func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Advance(Time(p.Rand().Intn(100) + 1))
				p.Checkpoint()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return e.MaxClock()
	}
	if final(1) == final(2) {
		t.Error("different seeds should give different random schedules")
	}
}

func TestSchedulerCounters(t *testing.T) {
	e := New(Config{Procs: 2})
	if err := e.Run(func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(10)
			p.Checkpoint()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if e.Switches() == 0 {
		t.Error("expected some goroutine switches")
	}

	// A lone processor checkpointing never needs a goroutine switch.
	solo := New(Config{Procs: 1})
	if err := solo.Run(func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(10)
			p.Checkpoint()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if solo.FastCheckpoints() != 10 {
		t.Errorf("fast checkpoints = %d, want 10", solo.FastCheckpoints())
	}
	if solo.Switches() != 0 {
		t.Errorf("switches = %d, want 0", solo.Switches())
	}
}

func TestPendingWakeConsumedByPark(t *testing.T) {
	// Two wakeups arrive while the target is still ready; both must be
	// observed by successive Parks, in order.
	var wakes []Time
	e := New(Config{Procs: 2})
	err := e.Run(func(p *Proc) {
		if p.ID() == 0 {
			target := e.Proc(1)
			e.ScheduleAt(20, func() { target.WakeAt(20) })
			e.ScheduleAt(30, func() { target.WakeAt(30) })
			p.Advance(100)
			p.Checkpoint()
			return
		}
		p.Advance(1)
		p.Checkpoint() // proc 0 runs ahead, both events fire while we are ready
		p.Park("first")
		wakes = append(wakes, p.Clock())
		p.Park("second")
		wakes = append(wakes, p.Clock())
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wakes) != 2 || wakes[0] != 20 || wakes[1] != 30 {
		t.Errorf("wakes = %v, want [20 30]", wakes)
	}
}

// Property: for any batch of event times, the engine executes them in
// non-decreasing time order with FIFO tie-breaks.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		var fired []Time
		e := New(Config{Procs: 1})
		err := e.Run(func(p *Proc) {
			for _, r := range raw {
				at := Time(r)
				e.ScheduleAt(at, func() { fired = append(fired, at) })
			}
			p.Advance(Time(70000))
			p.Checkpoint()
		})
		if err != nil {
			return false
		}
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the global log of checkpoint timestamps across P processors is
// non-decreasing for arbitrary per-proc step sequences.
func TestCausalOrderProperty(t *testing.T) {
	f := func(steps [][]uint8, procsRaw uint8) bool {
		procs := int(procsRaw)%6 + 2
		if len(steps) < procs {
			return true
		}
		var stamps []Time
		e := New(Config{Procs: procs})
		err := e.Run(func(p *Proc) {
			mine := steps[p.ID()]
			if len(mine) > 50 {
				mine = mine[:50]
			}
			for _, s := range mine {
				p.Advance(Time(s) + 1)
				p.Checkpoint()
				stamps = append(stamps, p.Clock())
			}
		})
		if err != nil {
			return false
		}
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestProcHeapStress(t *testing.T) {
	// Exercise push/pop/remove invariants directly.
	var h procHeap
	e := New(Config{Procs: 1})
	ps := make([]*Proc, 64)
	for i := range ps {
		ps[i] = newProc(e, i)
		ps[i].clock = Time((i * 37) % 64)
		h.push(ps[i])
	}
	var prev Time = -1
	var prevID = -1
	for h.len() > 0 {
		p := h.pop()
		if p.clock < prev || (p.clock == prev && p.id < prevID) {
			t.Fatalf("heap order violated: %d@%d after %d@%d", p.id, p.clock, prevID, prev)
		}
		prev, prevID = p.clock, p.id
	}
}

func TestBenchmarkableManyProcs(t *testing.T) {
	e := New(Config{Procs: 32})
	err := e.Run(func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Advance(Time(1 + (p.ID()+i)%13))
			p.Checkpoint()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.MaxClock() == 0 {
		t.Error("clock did not advance")
	}
}

func TestTimeLimit(t *testing.T) {
	e := New(Config{Procs: 2, TimeLimit: 100})
	err := e.Run(func(p *Proc) {
		for {
			p.Advance(10)
			p.Checkpoint()
		}
	})
	if err == nil || !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("expected ErrTimeLimit, got %v", err)
	}
}
