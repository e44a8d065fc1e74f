package am

import (
	"fmt"

	"repro/internal/sim"
)

// Continuation-mode endpoint primitives.
//
// A resumable processor body (sim.Resumable) cannot call the blocking
// endpoint operations — Request, Store, Poll, WaitUntilFor — because they
// park by suspending the calling body's stack, and a state-machine body
// has none. The methods in this file decompose each blocking operation
// into the three things it actually does:
//
//  1. poll   — PollOneDue services one arrival present at the NIC,
//     exactly the message-processing half of Poll (GAM polls on every
//     request), with the caller parking on sim.Yield between steps;
//  2. wait   — WindowWait / CounterWait / QuiesceWait hand the engine a
//     closure-free wait record to drive (the same epWait blocking
//     bodies park on, so both forms share one wait implementation);
//  3. commit — SendRequest / SendStore perform the charge, the window
//     book-keeping, and the launch, with no possibility of blocking.
//
// The splitc continuation layer assembles these into the Split-C
// primitives; the assembly order mirrors the blocking originals
// statement for statement, which is what the cross-mode equivalence test
// pins (see DESIGN.md §11).
//
// Charges and arrivals are identical to the blocking path: both funnel
// into chargeSend and launch. Control transfer is equivalent too: a
// blocking Checkpoint maps to one park on sim.Yield — the engine resumes
// a parked processor only once every peer at a smaller (clock, id) has
// run and every event due by its clock has fired, which is precisely
// what Checkpoint does inline — and each blocking poll decomposes into
// PollOneDue steps separated by such parks. The two modes therefore
// produce bit-identical timelines, which the cross-mode twin test pins.

// PollOneDue services at most one message that has arrived by the
// processor's current time, charging o_recv and running its handler —
// one step of the continuation-mode poll. Pending engine events due by
// the clock are drained around the step so deliveries and credit
// returns materialize exactly as a Checkpoint would have made them.
// Returns whether a message was processed; the caller must park on
// sim.Yield before the first step and between steps so the poll
// interleaves with slower processors exactly as the blocking Poll's
// Checkpoints do.
//
//repro:hotpath
func (ep *Endpoint) PollOneDue() bool {
	if ep.inHandler {
		panic("am: PollOneDue called from a message handler")
	}
	ep.proc.RunDueEvents()
	msg := ep.peekInbox()
	if msg == nil || msg.arrival > ep.proc.Clock() {
		return false
	}
	ep.popInbox()
	ep.process(msg)
	ep.proc.RunDueEvents()
	return true
}

// CanSend reports whether a request credit toward dst is free, i.e.
// whether SendRequest/SendStore may be called without a window stall.
//
//repro:hotpath
func (ep *Endpoint) CanSend(dst int) bool {
	return ep.outstanding.get(dst) < ep.params().Window
}

// WindowWait returns the endpoint's reusable wait for a free request
// credit toward dst. Park on it when CanSend is false; by the next
// Resume call a credit is free.
//
//repro:hotpath
func (ep *Endpoint) WindowWait(dst int) sim.PollableWait {
	return ep.pw.set(waitModeWindow, nil, nil, 0, dst, ep.params().Window, "am: window stall")
}

// CounterWait returns the endpoint's reusable wait for *ctr >= target.
// Counters must be cumulative (monotonically nondecreasing) — replies
// received, barrier notifications, collective operands — so that a wait
// constructed against a stale snapshot can only be satisfied early,
// never missed. Closure-free: the record points at the counter directly.
//
//repro:hotpath
func (ep *Endpoint) CounterWait(ctr *int64, target int64, reason string) sim.PollableWait {
	return ep.pw.set(waitModeCounter, nil, ctr, target, 0, 0, reason)
}

// QuiesceWait returns the endpoint's reusable wait for all outstanding
// requests to be acked — the continuation form of a store sync.
//
//repro:hotpath
func (ep *Endpoint) QuiesceWait() sim.PollableWait {
	return ep.pw.set(waitModeQuiesce, nil, nil, 0, 0, 0, "am: store sync")
}

// SendRequest is the commit half of Request: charge o_send, consume a
// window credit, launch. The caller is responsible for the GAM request
// preamble — a yield-interleaved PollOneDue loop, then a WindowWait park
// if CanSend is false; calling
// with a full window is a discipline violation and panics rather than
// silently overrunning the capacity constraint.
//
//repro:hotpath
func (ep *Endpoint) SendRequest(dst int, class Class, h Handler, args Args) {
	ep.checkRequestContext("SendRequest")
	if h == nil {
		panic("am: SendRequest with nil handler")
	}
	if !ep.CanSend(dst) {
		panic(fmt.Sprintf("am: SendRequest from proc %d with a full window toward %d; park on WindowWait first", ep.ID(), dst))
	}
	ep.chargeSend()
	ep.outstanding.inc(dst)
	msg := ep.m.getMsg()
	msg.kind, msg.src, msg.dst, msg.class, msg.handler, msg.args = kindRequest, ep.ID(), dst, class, h, args
	ep.m.stats.countSendAt(ep.ID(), dst, class, false, 0, ep.proc.Clock())
	ep.launch(msg)
}

// SendStore is the commit half of Store: one bulk fragment under the
// window, no blocking. The same preamble discipline as SendRequest
// applies. The data is copied at send time.
//
//repro:hotpath
func (ep *Endpoint) SendStore(dst int, class Class, h BulkHandler, args Args, data []byte) {
	ep.checkRequestContext("SendStore")
	if h == nil {
		panic("am: SendStore with nil handler")
	}
	p := ep.params()
	if len(data) > p.FragmentSize {
		panic(fmt.Sprintf("am: SendStore of %d bytes exceeds fragment size %d", len(data), p.FragmentSize))
	}
	if !ep.CanSend(dst) {
		panic(fmt.Sprintf("am: SendStore from proc %d with a full window toward %d; park on WindowWait first", ep.ID(), dst))
	}
	ep.chargeSend()
	ep.outstanding.inc(dst)
	//lint:allow hotpathalloc bulk payload copy is the transfer semantics; the zero-alloc property covers short messages
	buf := make([]byte, len(data))
	copy(buf, data)
	msg := ep.m.getMsg()
	msg.kind, msg.src, msg.dst, msg.class, msg.bulkH, msg.args, msg.data = kindBulk, ep.ID(), dst, class, h, args, buf
	ep.m.stats.countSendAt(ep.ID(), dst, class, true, len(data), ep.proc.Clock())
	ep.launch(msg)
}

// MarkWaitBegin reports a wait-span start to the attached hooks, for
// continuation primitives that bracket their parks the way WaitUntilFor
// and waitWindow do. No-op when no hooks are attached.
func (ep *Endpoint) MarkWaitBegin(kind WaitKind) {
	if h := ep.m.hooks; h != nil {
		h.WaitBegin(ep.ID(), kind, ep.proc.Clock())
	}
}

// MarkWaitEnd closes a wait span opened by MarkWaitBegin.
func (ep *Endpoint) MarkWaitEnd(kind WaitKind) {
	if h := ep.m.hooks; h != nil {
		h.WaitEnd(ep.ID(), kind, ep.proc.Clock())
	}
}
