package am

import (
	"testing"

	"repro/internal/allocpin"
	"repro/internal/logp"
	"repro/internal/sim"
)

// simPkgs are the packages whose allocations the zero-allocation pins
// attribute: the engine and this layer.
var simPkgs = []string{"repro/internal/sim", "repro/internal/am"}

// TestShortMessagePathZeroAlloc pins the zero-allocation property of the
// steady-state short-message path: once the message pool, the event heap,
// and the inboxes have reached their high-water marks, sending a request,
// delivering it, running its handler, and returning the window credit must
// not touch the heap. The measurement runs inside the sending body — the
// receiver's deliveries and handler invocations execute inline under the
// engine's pollable-wait dispatch, so the window covers the complete
// send+receive path.
func TestShortMessagePathZeroAlloc(t *testing.T) {
	params := logp.NOW()
	eng := sim.New(sim.Config{Procs: 2})
	m := MustMachine(eng, params)
	const warm, measured = 256, 1024
	total := warm + measured
	seen := 0
	handler := func(*Endpoint, *Token, Args) { seen++ }
	var sites []string
	err := eng.RunEach([]func(*sim.Proc){
		func(p *sim.Proc) {
			ep := m.Endpoint(0)
			for i := 0; i < warm; i++ {
				ep.Request(1, ClassWrite, handler, Args{})
			}
			sites = allocpin.Sites(simPkgs, func() {
				for i := 0; i < measured; i++ {
					ep.Request(1, ClassWrite, handler, Args{})
				}
			})
			ep.WaitUntil(func() bool { return seen == total }, "drain")
		},
		func(p *sim.Proc) {
			m.Endpoint(1).WaitUntil(func() bool { return seen == total }, "sink")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != total {
		t.Fatalf("handler ran %d times, want %d", seen, total)
	}
	for _, s := range sites {
		t.Errorf("steady-state short-message path allocated: %s", s)
	}
}

// TestPingPongHandoffZeroAlloc pins the coroutine hand-off itself at zero
// allocations. Two processors bounce a message back and forth, each
// blocking until the other's arrives, so every message ends a wait whose
// body must run again: the driver resumes a suspended coroutine once per
// message, which the inline wait steps of the one-way stream above avoid.
func TestPingPongHandoffZeroAlloc(t *testing.T) {
	eng := sim.New(sim.Config{Procs: 2})
	m := MustMachine(eng, logp.NOW())
	const warm, measured = 64, 512
	rounds := warm + measured
	var got [2]int
	arrived := func(ep *Endpoint, _ *Token, _ Args) { got[ep.ID()]++ }
	var sites []string
	var switches int64
	err := eng.RunEach([]func(*sim.Proc){
		func(p *sim.Proc) {
			ep := m.Endpoint(0)
			want := 0
			pong := func() bool { return got[0] == want }
			round := func() {
				ep.Request(1, ClassWrite, arrived, Args{})
				want++
				ep.WaitUntil(pong, "pong")
			}
			for i := 0; i < warm; i++ {
				round()
			}
			before := eng.Switches()
			sites = allocpin.Sites(simPkgs, func() {
				for i := 0; i < measured; i++ {
					round()
				}
			})
			switches = eng.Switches() - before
		},
		func(p *sim.Proc) {
			ep := m.Endpoint(1)
			want := 0
			ping := func() bool { return got[1] == want }
			for i := 0; i < rounds; i++ {
				want++
				ep.WaitUntil(ping, "ping")
				ep.Request(0, ClassWrite, arrived, Args{})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != rounds || got[1] != rounds {
		t.Fatalf("delivered %v, want %d each way", got, rounds)
	}
	if switches < 2*measured {
		t.Fatalf("%d coroutine hand-offs over %d round trips; the pin needs one per message", switches, measured)
	}
	for _, s := range sites {
		t.Errorf("coroutine hand-off path allocated: %s", s)
	}
}

// TestMessagePoolRecycles checks the freelist actually cycles records:
// a long steady-state stream must not grow the pool past the in-flight
// high-water mark (window + wire + inbox).
func TestMessagePoolRecycles(t *testing.T) {
	params := logp.NOW()
	eng := sim.New(sim.Config{Procs: 2})
	m := MustMachine(eng, params)
	const n = 2000
	seen := 0
	handler := func(*Endpoint, *Token, Args) { seen++ }
	err := eng.RunEach([]func(*sim.Proc){
		func(p *sim.Proc) {
			ep := m.Endpoint(0)
			for i := 0; i < n; i++ {
				ep.Request(1, ClassWrite, handler, Args{})
			}
			ep.WaitUntil(func() bool { return seen == n }, "drain")
		},
		func(p *sim.Proc) {
			m.Endpoint(1).WaitUntil(func() bool { return seen == n }, "sink")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every data message and every credit record passes through the pool;
	// the live set at any instant is bounded by the window plus what the
	// wire and inbox can hold, far below the message count.
	if len(m.msgPool) > 4*params.Window+8 {
		t.Errorf("pool grew to %d records for a window of %d; recycling is not steady-state", len(m.msgPool), params.Window)
	}
}

// TestPoolingDisabledUnderReliability pins the ownership rule: with the
// reliability layer on (or a lossy injector attached), records may be
// referenced past delivery, so delivery-time recycling must be off.
func TestPoolingDisabledUnderReliability(t *testing.T) {
	eng := sim.New(sim.Config{Procs: 2})
	m := MustMachine(eng, logp.NOW())
	if !m.pooling {
		t.Fatal("pooling should start enabled")
	}
	m.SetReliability(Reliability{Enabled: true})
	if m.pooling {
		t.Error("pooling must be disabled while the reliability layer is on")
	}
	m.SetReliability(Reliability{})
	if !m.pooling {
		t.Error("pooling should re-enable when the reliability layer is torn down")
	}
}
