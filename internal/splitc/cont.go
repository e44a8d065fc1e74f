package splitc

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/am"
	"repro/internal/sim"
)

// Continuation-mode Split-C: the same primitive set as Proc, expressed as
// resumable state machines so a program runs on sim.RunResumables with
// no stack per processor, and scales to a million processors.
//
// A Task is re-entered by the runtime after every park, so a primitive
// cannot keep its progress on the stack. Each TProc method in this file
// is instead written in resumptive style: it records its progress in the
// TProc's single op cell and is called again, with identical arguments,
// after every wait it returns has completed. The calling convention is
// uniform:
//
//	v, wt := t.ReadWordT(g)
//	if wt != nil {
//		return wt, false // park; re-call ReadWordT on re-entry
//	}
//
// One primitive may be in flight per processor at a time (the same
// discipline the blocking layer enforces by construction — one body, and
// handlers may not wait). Primitives reset the op cell on completion, so
// sequential composition needs no coordination beyond the caller's own
// program counter.
//
// Each primitive replays its blocking original statement for statement:
// the same poll points, the same window stalls, the same sends with the
// same classes, the same wait conditions in the same order, bracketed by
// the same instrumentation hooks. Both modes park on the endpoint's one
// epWait record and are driven by the same Engine.stepWait, so the wait
// phases are not merely equivalent but shared code. The poll points map
// too: a blocking Checkpoint becomes a park on sim.Yield — the engine
// resumes a parked processor only once every peer at a smaller
// (clock, id) has run and every event due by its clock has fired, which
// is precisely what Checkpoint does inline — and each blocking Poll
// becomes PollOneDue steps separated by such parks. The two runtimes
// therefore produce bit-identical timelines; the cross-mode twin test
// pins this under the NOW parameter set, whose clustered arrivals would
// expose any poll-point divergence. See DESIGN.md §11.
//
// Collectives use per-processor operand cells (a two-deep value ring +
// cumulative counters per tag) instead of the blocking layer's queues.
// Causality within one collective episode plus per-pair FIFO delivery
// bound the in-flight values per tag to two (the recursive-doubling
// butterfly's partner can run one episode ahead before the consumer
// reads; every other algorithm stays at one), which is what makes the
// ring sufficient — but it obliges callers to separate successive
// broadcast episodes with a BarrierT (the all-reduce algorithms and
// ScanAddT are self-separating: their own reduce/recv dependencies
// provide the causality). The flat all-reduce's root gathers P-1
// operands per episode, beyond any fixed ring — its senders use the
// accumulating handler hCollAcc, which combines into the cell on
// arrival instead of storing.

// Task is the continuation form of an SPMD body: Step is called
// repeatedly, and must either return a wait to park on (done=false) or
// finish (done=true). Returning (nil, false) panics — a task that cannot
// finish must name what it waits for. Use sim.Yield to reschedule
// without a condition.
type Task interface {
	Step(t *TProc) (wait sim.PollableWait, done bool)
}

// TaskFunc adapts a plain function to Task.
type TaskFunc func(t *TProc) (sim.PollableWait, bool)

// Step implements Task.
func (f TaskFunc) Step(t *TProc) (sim.PollableWait, bool) { return f(t) }

// TProc is one processor's continuation-mode view of the world: the
// counterpart of Proc for bodies running under RunTasks.
type TProc struct {
	w    *World
	ep   *am.Endpoint
	sp   *sim.Proc
	task Task
	done bool // task finished; terminal barrier may still be running

	// op is the in-flight primitive's state cell. pc is the primitive's
	// own program counter, sub the leaf (request/recv) sub-counter, and
	// the rest is scratch a primitive keeps across parks.
	op opState

	// cells holds the collective operand cells, lazily allocated on
	// first collective use (tags as in sync.go/collectives.go).
	cells []collCell

	storeByteCount int64
	failedLocks    int64
}

// opState is the per-processor primitive state cell. One primitive is in
// flight at a time, so a single cell (rather than a stack) suffices.
type opState struct {
	pc    int    // primitive program counter (0 = no primitive in flight)
	sub   int    // leaf sub-machine counter (requestT / recvCollT / roundTripT)
	r     int    // round or fragment cursor
	bpc   int    // broadcast-tree program counter
	br    int    // broadcast-tree round cursor
	acc   uint64 // accumulator / round-trip result
	flag  int64  // round-trip completion counter (CounterWait target 1)
	tgt   int64  // barrier episode target
	recvd int64  // bulk-get words received (cumulative per call)
	out   []uint64
}

// collCell is one collective tag's operand slot: vals is a two-deep
// ring indexed by arrival/consumption counters (cnt counts operands ever
// received, exp operands ever consumed). With at most two operands in
// flight per tag (see the package comment), cnt ≤ exp+2 always — the
// handler guards this — so a value is never overwritten before its
// consumer reads it. acc accumulates operands delivered through the
// combining handler hCollAcc (the flat all-reduce's gather), which
// shares cnt/exp as pure counters; a tag uses one delivery mode or the
// other, never both.
type collCell struct {
	vals [2]uint64
	acc  uint64
	cnt  int64
	exp  int64
}

// RunTasks executes one Task per processor on the resumable runtime and
// returns when all have finished. Like Run, a terminal barrier is
// implied so all in-flight communication quiesces. mk is called once per
// processor, in processor order, before the run starts.
func (w *World) RunTasks(mk func(id int) Task) error {
	w.initContHandlers()
	P := w.P()
	w.tp = make([]*TProc, P)
	bodies := make([]sim.Resumable, P)
	for i := 0; i < P; i++ {
		t := &TProc{w: w, ep: w.m.Endpoint(i), task: mk(i)}
		w.tp[i] = t
		bodies[i] = t
	}
	err := w.eng.RunResumables(bodies)
	w.elapsed = w.eng.MaxClock()
	return err
}

// Resume implements sim.Resumable: drive the task, then the implied
// terminal barrier.
func (t *TProc) Resume(p *sim.Proc) (sim.PollableWait, bool) {
	t.sp = p
	if !t.done {
		wt, d := t.task.Step(t)
		if wt != nil {
			return wt, false
		}
		if !d {
			panic(fmt.Sprintf("splitc: proc %d Task.Step returned neither a wait nor done", t.ep.ID()))
		}
		t.done = true
	}
	if wt := t.BarrierT(); wt != nil {
		return wt, false
	}
	return nil, true
}

// initContHandlers creates the world's handler set once. Handlers close
// over the world only; per-processor results are routed through the
// receiving endpoint's TProc, so the steady-state send paths allocate
// nothing.
func (w *World) initContHandlers() {
	if w.hWrite != nil {
		return
	}
	w.hWrite = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		w.mem[a[0]>>32][uint32(a[0])] = a[1]
	}
	w.hBarrier = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		w.barrierOf(ep.ID()).recvCount[a[0]]++
	}
	w.hColl = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		c := w.tp[ep.ID()].cell(int(a[0]))
		if c.cnt-c.exp >= 2 {
			panic("splitc: collective operand ring overrun")
		}
		c.vals[c.cnt&1] = a[1]
		c.cnt++
	}
	// hCollAcc combines the operand into the cell on arrival (a[2] is
	// the ReduceOp code); used where one consumer drains an unbounded
	// fan-in, so a fixed ring cannot hold the episode.
	w.hCollAcc = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		c := w.tp[ep.ID()].cell(int(a[0]))
		c.acc = reduceApply(ReduceOp(a[2]), c.acc, a[1])
		c.cnt++
	}
	// hReply lands every short round-trip reply: the requester's op cell
	// is the destination (one round trip in flight per processor).
	w.hReply = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		t := w.tp[ep.ID()]
		t.op.acc = a[0]
		t.op.flag++
	}
	w.hReadReq = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		v := w.mem[a[0]>>32][uint32(a[0])]
		ep.Reply(tok, w.hReply, am.Args{v})
	}
	w.hFetchAdd = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		ptr := &w.mem[a[0]>>32][uint32(a[0])]
		v := *ptr
		*ptr += a[1]
		ep.Reply(tok, w.hReply, am.Args{v})
	}
	w.hTryLock = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		ptr := &w.mem[a[0]>>32][uint32(a[0])]
		var res uint64
		if *ptr == 0 {
			*ptr = 1
			res = 1
		}
		ep.Reply(tok, w.hReply, am.Args{res})
	}
	w.hCAS = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		ptr := &w.mem[a[0]>>32][uint32(a[0])]
		var res uint64
		if *ptr == a[1] {
			*ptr = a[2]
			res = 1
		}
		ep.Reply(tok, w.hReply, am.Args{res})
	}
	w.hBulkPut = func(ep *am.Endpoint, tok *am.Token, a am.Args, data []byte) {
		dst := UnpackGPtr(a[0])
		mem := w.mem[dst.Proc]
		for i := 0; i < len(data)/8; i++ {
			mem[int(dst.Off)+i] = binary.LittleEndian.Uint64(data[8*i:])
		}
	}
	w.hBulkGetRep = func(ep *am.Endpoint, tok *am.Token, a am.Args, data []byte) {
		t := w.tp[ep.ID()]
		base := int(a[0])
		for i := 0; i < len(data)/8; i++ {
			t.op.out[base+i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		t.op.recvd += int64(len(data) / 8)
	}
	w.hBulkGetReq = func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		from := UnpackGPtr(a[0])
		cnt := int(a[1])
		mem := w.mem[from.Proc]
		buf := make([]byte, 8*cnt)
		for i := 0; i < cnt; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], mem[int(from.Off)+i])
		}
		ep.ReplyBulk(tok, w.hBulkGetRep, am.Args{a[2]}, buf)
	}
}

// ----- TProc surface shared with Proc -----

// ID returns the processor number in [0, P).
func (t *TProc) ID() int { return t.ep.ID() }

// P returns the processor count.
func (t *TProc) P() int { return t.w.P() }

// World returns the enclosing world.
func (t *TProc) World() *World { return t.w }

// EP exposes the raw Active Message endpoint.
func (t *TProc) EP() *am.Endpoint { return t.ep }

// Rand returns the processor's deterministic PRNG.
func (t *TProc) Rand() *rand.Rand { return t.sp.Rand() }

// Now returns the processor's virtual clock.
func (t *TProc) Now() sim.Time { return t.sp.Clock() }

// Compute charges local computation time.
func (t *TProc) Compute(d sim.Time) { t.ep.Compute(d) }

// ComputeUs charges local computation time given in microseconds.
func (t *TProc) ComputeUs(us float64) { t.ep.Compute(sim.FromMicros(us)) }

// PollT is Poll: service due arrivals, yielding between each so slower
// processors interleave exactly as the blocking Poll's Checkpoints
// allow. Resumptive; a nil return means the inbox is drained.
func (t *TProc) PollT() sim.PollableWait {
	switch t.op.sub {
	case 0:
		t.op.sub = 4
		return sim.Yield
	case 4:
		if t.ep.PollOneDue() {
			return sim.Yield
		}
	}
	t.op.sub = 0
	return nil
}

// Alloc reserves n words in the calling processor's global heap.
func (t *TProc) Alloc(n int) GPtr {
	id := t.ID()
	off := len(t.w.mem[id])
	t.w.mem[id] = append(t.w.mem[id], make([]uint64, n)...)
	return GPtr{Proc: int32(id), Off: int32(off)}
}

// Local returns a direct slice view of n words at g, which must live on
// the calling processor.
func (t *TProc) Local(g GPtr, n int) []uint64 {
	if int(g.Proc) != t.ID() {
		panic(fmt.Sprintf("splitc: Local(%v) on proc %d", g, t.ID()))
	}
	return t.w.mem[g.Proc][g.Off : int(g.Off)+n]
}

// StoreBytes counts the bytes written via pipelined stores since the
// last ResetStoreBytes.
func (t *TProc) StoreBytes() int64 { return t.storeByteCount }

// ResetStoreBytes zeroes the pipelined-store byte counter.
func (t *TProc) ResetStoreBytes() { t.storeByteCount = 0 }

// FailedLockAttempts reports how many TryLock retries LockT has burned.
func (t *TProc) FailedLockAttempts() int64 { return t.failedLocks }

func (t *TProc) fragWords() int { return t.w.m.Params().FragmentSize / 8 }

func (t *TProc) syncEnter(r SyncRegion) {
	for _, h := range t.w.sync {
		h.SyncEnter(t.ID(), r, t.sp.Clock())
	}
}

func (t *TProc) syncExit(r SyncRegion) {
	for _, h := range t.w.sync {
		h.SyncExit(t.ID(), r, t.sp.Clock())
	}
}

// cell returns the collective operand cell for tag, allocating the tag
// table (sized by the world's tag-space layout) on first collective use.
func (t *TProc) cell(tag int) *collCell {
	if t.cells == nil {
		t.cells = make([]collCell, t.w.sel.numTags)
	}
	return &t.cells[tag]
}

// ----- leaf sub-machines -----

// requestT is the continuation form of Endpoint.Request's preamble and
// send: poll (yielding before the first inbox inspection and between
// serviced arrivals, as Poll checkpoints), stall on the window if full,
// then commit. op.sub: 0 fresh, 4 in the poll loop, 1 re-entered after a
// window park.
func (t *TProc) requestT(dst int, class am.Class, h am.Handler, a am.Args) sim.PollableWait {
	switch t.op.sub {
	case 0:
		// Poll's leading Checkpoint: every processor at a smaller
		// (clock, id) runs before the inbox is inspected.
		t.op.sub = 4
		return sim.Yield
	case 4:
		if t.ep.PollOneDue() {
			return sim.Yield // Checkpoint between serviced arrivals
		}
		if !t.ep.CanSend(dst) {
			t.ep.MarkWaitBegin(am.WaitWindow)
			t.op.sub = 1
			return t.ep.WindowWait(dst)
		}
	case 1:
		// The engine established a free credit; send without re-testing,
		// exactly as waitWindow breaks without re-testing.
		t.ep.MarkWaitEnd(am.WaitWindow)
	}
	t.op.sub = 0
	t.ep.SendRequest(dst, class, h, a)
	return nil
}

// storeT is requestT for one bulk fragment (Endpoint.Store's shape).
func (t *TProc) storeT(dst int, class am.Class, h am.BulkHandler, a am.Args, data []byte) sim.PollableWait {
	switch t.op.sub {
	case 0:
		t.op.sub = 4
		return sim.Yield
	case 4:
		if t.ep.PollOneDue() {
			return sim.Yield
		}
		if !t.ep.CanSend(dst) {
			t.ep.MarkWaitBegin(am.WaitWindow)
			t.op.sub = 1
			return t.ep.WindowWait(dst)
		}
	case 1:
		t.ep.MarkWaitEnd(am.WaitWindow)
	}
	t.op.sub = 0
	t.ep.SendStore(dst, class, h, a, data)
	return nil
}

// roundTripT issues a request and waits for its short reply; the reply
// value lands in op.acc via hReply. op.sub: 0/1 inside requestT, 2
// parked on the reply.
func (t *TProc) roundTripT(dst int, class am.Class, h am.Handler, a am.Args, kind am.WaitKind, reason string) (uint64, sim.PollableWait) {
	if t.op.sub == 2 {
		t.ep.MarkWaitEnd(kind)
		t.op.sub = 0
		return t.op.acc, nil
	}
	t.op.flag = 0
	if wt := t.requestT(dst, class, h, a); wt != nil {
		return 0, wt
	}
	// The reply is at least a round trip away; the wait can never be
	// ready at this instant, so park unconditionally (as the blocking
	// WaitUntilFor would after its first failed condition test).
	t.ep.MarkWaitBegin(kind)
	t.op.sub = 2
	return 0, t.ep.CounterWait(&t.op.flag, 1, reason)
}

// sendCollT ships one operand word to dst under tag (sendColl's shape).
func (t *TProc) sendCollT(dst, tag int, val uint64) sim.PollableWait {
	return t.requestT(dst, am.ClassSync, t.w.hColl, am.Args{uint64(tag), val})
}

// sendCollAccT ships one operand word for arrival-time combination
// under op (the flat all-reduce's gather leg).
func (t *TProc) sendCollAccT(dst, tag int, val uint64, op ReduceOp) sim.PollableWait {
	return t.requestT(dst, am.ClassSync, t.w.hCollAcc, am.Args{uint64(tag), val, uint64(op)})
}

// recvCollT consumes the next operand under tag, waiting if it has not
// arrived (recvColl's shape). op.sub: 0 fresh, 3 parked on the cell.
func (t *TProc) recvCollT(tag int) (uint64, sim.PollableWait) {
	c := t.cell(tag)
	if t.op.sub == 3 {
		t.ep.MarkWaitEnd(am.WaitBarrier)
		t.op.sub = 0
		v := c.vals[c.exp&1]
		c.exp++
		return v, nil
	}
	// Park unconditionally: the engine steps the wait only once every
	// processor at a smaller (clock, id) has run, which is exactly the
	// blocking wait's leading Checkpoint. An operand that has already
	// arrived satisfies the wait on that first step without advancing
	// the clock.
	t.ep.MarkWaitBegin(am.WaitBarrier)
	t.op.sub = 3
	return 0, t.ep.CounterWait(&c.cnt, c.exp+1, "splitc: collective recv")
}

// ----- continuation primitives -----

// WriteWordT is WriteWord: one pipelined short store, stalling only on a
// full window. A nil return means the store was issued.
func (t *TProc) WriteWordT(g GPtr, v uint64) sim.PollableWait {
	if int(g.Proc) == t.ID() {
		*t.w.word(g) = v
		return nil
	}
	if wt := t.requestT(int(g.Proc), am.ClassWrite, t.w.hWrite, am.Args{g.Pack(), v}); wt != nil {
		return wt
	}
	t.storeByteCount += 8
	return nil
}

// ReadWordT is ReadWord: a blocking remote read, one request + reply.
func (t *TProc) ReadWordT(g GPtr) (uint64, sim.PollableWait) {
	if int(g.Proc) == t.ID() {
		return *t.w.word(g), nil
	}
	return t.roundTripT(int(g.Proc), am.ClassRead, t.w.hReadReq, am.Args{g.Pack()}, am.WaitRead, "splitc: blocking read")
}

// StoreSyncT is StoreSync: wait until every issued request is acked.
// op.pc: 0 fresh, 1 parked on quiescence.
func (t *TProc) StoreSyncT() sim.PollableWait {
	if t.op.pc == 1 {
		t.ep.MarkWaitEnd(am.WaitStore)
		t.op.pc = 0
		return nil
	}
	t.ep.MarkWaitBegin(am.WaitStore)
	t.op.pc = 1
	return t.ep.QuiesceWait()
}

// FetchAddT is FetchAdd: an atomic remote add returning the old value.
func (t *TProc) FetchAddT(g GPtr, delta uint64) (uint64, sim.PollableWait) {
	if int(g.Proc) == t.ID() {
		ptr := t.w.word(g)
		old := *ptr
		*ptr += delta
		return old, nil
	}
	return t.roundTripT(int(g.Proc), am.ClassSync, t.w.hFetchAdd, am.Args{g.Pack(), delta}, am.WaitLock, "splitc: fetch-add")
}

// TryLockT is TryLock: one test-and-set round trip.
func (t *TProc) TryLockT(g GPtr) (bool, sim.PollableWait) {
	if int(g.Proc) == t.ID() {
		ptr := t.w.word(g)
		if *ptr == 0 {
			*ptr = 1
			return true, nil
		}
		return false, nil
	}
	v, wt := t.roundTripT(int(g.Proc), am.ClassSync, t.w.hTryLock, am.Args{g.Pack()}, am.WaitLock, "splitc: try-lock")
	if wt != nil {
		return false, wt
	}
	return v == 1, nil
}

// CompareSwapT is CompareSwap: one compare-and-swap round trip.
func (t *TProc) CompareSwapT(g GPtr, old, next uint64) (bool, sim.PollableWait) {
	if int(g.Proc) == t.ID() {
		ptr := t.w.word(g)
		if *ptr == old {
			*ptr = next
			return true, nil
		}
		return false, nil
	}
	v, wt := t.roundTripT(int(g.Proc), am.ClassSync, t.w.hCAS, am.Args{g.Pack(), old, next}, am.WaitLock, "splitc: compare-swap")
	if wt != nil {
		return false, wt
	}
	return v == 1, nil
}

// LockT is Lock: spin on TryLockT until acquired, charging the spin cost
// and yielding between retries so peers (in particular the holder) can
// run. op.pc: 0 enter, 1 trying, 2 re-entered after the yield.
func (t *TProc) LockT(g GPtr) sim.PollableWait {
	for {
		switch t.op.pc {
		case 0:
			t.syncEnter(RegionLock)
			t.op.pc = 1
		case 1:
			got, wt := t.TryLockT(g)
			if wt != nil {
				return wt
			}
			if got {
				t.syncExit(RegionLock)
				t.op.pc = 0
				return nil
			}
			t.failedLocks++
			t.ep.Compute(lockSpinCost)
			t.op.pc = 2
			// The spin's Poll(): a yield (its leading Checkpoint), then
			// one serviced arrival per further yield.
			return sim.Yield
		case 2:
			if t.ep.PollOneDue() {
				return sim.Yield
			}
			t.op.pc = 1
		}
	}
}

// UnlockT is Unlock: release the lock word with a pipelined store.
func (t *TProc) UnlockT(g GPtr) sim.PollableWait { return t.WriteWordT(g, 0) }

// BarrierT is Barrier: store-sync, then the world's selected barrier
// algorithm.
func (t *TProc) BarrierT() sim.PollableWait { return t.w.sel.barrier.runT(t) }

// barrierDissemT is barrierDissem: store-sync, then the dissemination
// barrier. op.pc: 0 enter, 1 store-sync complete, 2 round dispatch
// (op.r), 3 round notification received.
func (t *TProc) barrierDissemT() sim.PollableWait {
	w, me, P := t.w, t.ID(), t.P()
	for {
		switch t.op.pc {
		case 0:
			t.syncEnter(RegionBarrier)
			t.ep.MarkWaitBegin(am.WaitStore)
			t.op.pc = 1
			return t.ep.QuiesceWait()
		case 1:
			t.ep.MarkWaitEnd(am.WaitStore)
			if P == 1 {
				w.m.Stats().CountBarrier()
				t.syncExit(RegionBarrier)
				t.op.pc = 0
				return nil
			}
			bs := w.barrierOf(me)
			bs.episodes++
			t.op.tgt = bs.episodes
			t.op.r = 0
			t.op.pc = 2
		case 2:
			if 1<<t.op.r >= P {
				if me == 0 {
					w.m.Stats().CountBarrier()
				}
				t.syncExit(RegionBarrier)
				t.op.pc = 0
				return nil
			}
			dst := (me + 1<<t.op.r) % P
			if wt := t.requestT(dst, am.ClassSync, w.hBarrier, am.Args{uint64(t.op.r)}); wt != nil {
				return wt
			}
			t.ep.MarkWaitBegin(am.WaitBarrier)
			bs := w.barrierOf(me)
			t.op.pc = 3
			return t.ep.CounterWait(&bs.recvCount[t.op.r], t.op.tgt, "splitc: barrier")
		case 3:
			t.ep.MarkWaitEnd(am.WaitBarrier)
			t.op.r++
			t.op.pc = 2
		}
	}
}

// bcastTreeT is bcastTree: the binomial broadcast sub-machine shared by
// the tree all-reduce and the binomial broadcast, parameterized by the
// collective's tag block. The value travels in op.acc. op.bpc: 0 enter,
// 1 receiving, 2 forwarding (op.br round cursor).
func (t *TProc) bcastTreeT(root int, base int) (uint64, sim.PollableWait) {
	me, P := t.ID(), t.P()
	rounds := logRounds(P)
	vid := (me - root + P) % P
	for {
		switch t.op.bpc {
		case 0:
			if vid != 0 {
				t.op.br = highestBit(vid)
				t.op.bpc = 1
				continue
			}
			t.op.br = 0
			t.op.bpc = 2
		case 1:
			v, wt := t.recvCollT(base + t.op.br)
			if wt != nil {
				return 0, wt
			}
			t.op.acc = v
			t.op.br++
			t.op.bpc = 2
		case 2:
			for t.op.br < rounds {
				r := t.op.br
				child := vid + 1<<r
				if vid < 1<<r && child < P {
					if wt := t.sendCollT((child+root)%P, base+r, t.op.acc); wt != nil {
						return 0, wt
					}
				}
				t.op.br++
			}
			t.op.bpc = 0
			return t.op.acc, nil
		}
	}
}

// allReduceTreeFnT is allReduceTreeFn: binomial reduce to processor 0,
// binomial broadcast back. op.pc: 0 enter, 1 round dispatch, 2 sending
// the partial, 3 receiving a partial, 4 broadcasting.
func (t *TProc) allReduceTreeFnT(val uint64, opFn func(a, b uint64) uint64) (uint64, sim.PollableWait) {
	w, me, P := t.w, t.ID(), t.P()
	for {
		switch t.op.pc {
		case 0:
			t.op.acc = val
			t.op.r = 0
			t.op.pc = 1
		case 1:
			mask := 1 << t.op.r
			if mask >= P {
				t.op.pc = 4
				continue
			}
			if me&mask != 0 {
				t.op.pc = 2
				continue
			}
			if me+mask < P {
				t.op.pc = 3
				continue
			}
			t.op.r++
		case 2:
			mask := 1 << t.op.r
			if wt := t.sendCollT(me&^mask, w.reduceTag(t.op.r), t.op.acc); wt != nil {
				return 0, wt
			}
			t.op.pc = 4
		case 3:
			v, wt := t.recvCollT(w.reduceTag(t.op.r))
			if wt != nil {
				return 0, wt
			}
			t.op.acc = opFn(t.op.acc, v)
			t.op.r++
			t.op.pc = 1
		case 4:
			v, wt := t.bcastTreeT(0, w.arBcastTag(0))
			if wt != nil {
				return 0, wt
			}
			t.op.pc = 0
			return v, nil
		}
	}
}

func addOp(a, b uint64) uint64 { return a + b }

func maxOp(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// AllReduceOpT is AllReduceOp: combine one word from every processor
// with a built-in operator via the world's selected all-reduce
// algorithm.
func (t *TProc) AllReduceOpT(val uint64, op ReduceOp) (uint64, sim.PollableWait) {
	if t.P() == 1 {
		return val, nil
	}
	return t.w.sel.ar.runT(t, val, op)
}

// AllReduceSumT sums one word across processors.
func (t *TProc) AllReduceSumT(v uint64) (uint64, sim.PollableWait) {
	return t.AllReduceOpT(v, OpSum)
}

// AllReduceMaxT takes the maximum of one word across processors.
func (t *TProc) AllReduceMaxT(v uint64) (uint64, sim.PollableWait) {
	return t.AllReduceOpT(v, OpMax)
}

// BroadcastT is Broadcast: distribute root's val to all processors with
// the world's selected broadcast algorithm. Successive BroadcastT
// episodes must be separated by a BarrierT (see the package comment).
func (t *TProc) BroadcastT(root int, val uint64) (uint64, sim.PollableWait) {
	P := t.P()
	if P == 1 {
		return val, nil
	}
	if root < 0 || root >= P {
		panic(fmt.Sprintf("splitc: Broadcast root %d out of range", root))
	}
	return t.w.sel.bcast.runT(t, root, val)
}

// ScanAddT is ScanAdd: the exclusive prefix sum, Hillis-Steele.
// op.pc: 0 enter, 1 send phase of round op.r, 2 recv phase.
func (t *TProc) ScanAddT(val uint64) (uint64, sim.PollableWait) {
	w, me, P := t.w, t.ID(), t.P()
	if P == 1 {
		return 0, nil
	}
	for {
		switch t.op.pc {
		case 0:
			t.op.acc = val // inclusive sum in progress
			t.op.r = 0
			t.op.pc = 1
		case 1:
			if 1<<t.op.r >= P {
				res := t.op.acc - val
				t.op.pc = 0
				return res, nil
			}
			dist := 1 << t.op.r
			if me+dist < P {
				if wt := t.sendCollT(me+dist, w.scanTag(t.op.r), t.op.acc); wt != nil {
					return 0, wt
				}
			}
			t.op.pc = 2
		case 2:
			dist := 1 << t.op.r
			if me-dist >= 0 {
				v, wt := t.recvCollT(w.scanTag(t.op.r))
				if wt != nil {
					return 0, wt
				}
				t.op.acc += v
			}
			t.op.r++
			t.op.pc = 1
		}
	}
}

// BulkPutT is BulkPut: pipelined bulk fragments under the window.
// op.pc: 0 fresh, 1 fragment loop (op.r is the word offset).
func (t *TProc) BulkPutT(g GPtr, vals []uint64) sim.PollableWait {
	if int(g.Proc) == t.ID() {
		copy(t.w.mem[g.Proc][g.Off:], vals)
		return nil
	}
	if t.op.pc == 0 {
		t.op.r = 0
		t.op.pc = 1
	}
	frag := t.fragWords()
	for t.op.r < len(vals) {
		off := t.op.r
		end := off + frag
		if end > len(vals) {
			end = len(vals)
		}
		chunk := vals[off:end]
		buf := make([]byte, 8*len(chunk))
		for i, v := range chunk {
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		target := g.Add(off)
		if wt := t.storeT(int(g.Proc), am.ClassWrite, t.w.hBulkPut, am.Args{target.Pack()}, buf); wt != nil {
			return wt
		}
		t.storeByteCount += int64(len(buf))
		t.op.r = end
	}
	t.op.pc = 0
	return nil
}

// BulkGetT is BulkGet: a blocking bulk read of n words at g. op.pc: 0
// fresh, 1 fragment-request loop (op.r word offset), 2 all fragments
// arrived.
func (t *TProc) BulkGetT(g GPtr, n int) ([]uint64, sim.PollableWait) {
	if int(g.Proc) == t.ID() {
		out := make([]uint64, n)
		copy(out, t.w.mem[g.Proc][g.Off:int(g.Off)+n])
		return out, nil
	}
	for {
		switch t.op.pc {
		case 0:
			t.op.out = make([]uint64, n)
			t.op.recvd = 0
			t.op.r = 0
			t.op.pc = 1
		case 1:
			frag := t.fragWords()
			for t.op.r < n {
				off := t.op.r
				count := frag
				if off+count > n {
					count = n - off
				}
				src := g.Add(off)
				if wt := t.requestT(int(g.Proc), am.ClassRead, t.w.hBulkGetReq, am.Args{src.Pack(), uint64(count), uint64(off)}); wt != nil {
					return nil, wt
				}
				t.op.r = off + frag
			}
			t.ep.MarkWaitBegin(am.WaitBulk)
			t.op.pc = 2
			return nil, t.ep.CounterWait(&t.op.recvd, int64(n), "splitc: bulk get")
		case 2:
			t.ep.MarkWaitEnd(am.WaitBulk)
			out := t.op.out
			t.op.out = nil
			t.op.pc = 0
			return out, nil
		}
	}
}
