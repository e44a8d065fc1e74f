// Package splitc provides the SPMD programming layer the paper's
// applications are written in: a Split-C-like global address space over
// Active Messages, with blocking reads, pipelined counted writes, bulk
// transfers, barriers, collectives, and simple global locks.
//
// The communication footprint of each primitive mirrors Split-C on GAM:
//
//   - ReadWord     — short request + short reply (round trip; ClassRead)
//   - WriteWord    — one short request; the firmware ack completes the
//     store counter (ClassWrite)
//   - BulkGet      — short request + bulk reply per ≤4 KB fragment
//   - BulkPut      — one bulk fragment per ≤4 KB (ClassWrite)
//   - Barrier      — store-sync, then the world's selected barrier
//     algorithm (a ⌈log2 P⌉-round dissemination barrier by default)
//   - Lock/Unlock  — round-trip test-and-set / one-way clear
//   - FetchAdd     — round trip (ClassSync)
//
// Local accesses touch memory directly and cost no virtual time; the
// applications charge their computation explicitly.
package splitc

import (
	"fmt"
	"math/rand"

	"repro/internal/am"
	"repro/internal/logp"
	"repro/internal/sim"
)

// World is a P-processor global address space over one am.Machine.
type World struct {
	eng *sim.Engine
	m   *am.Machine

	// mem is the per-processor global heap, addressed in 64-bit words.
	mem [][]uint64

	// barrier state, one per processor (handlers run on the owner).
	barrier []barrierState
	// collective state, one per processor.
	coll []collState

	// sel is the resolved collective selection and tag-space layout
	// (see coll.go), fixed at construction.
	sel collSel

	// phases accumulates per-label processor time (see phase.go).
	phases phaseAccount

	// Continuation-runtime state (see cont.go): tp holds one TProc per
	// processor during RunTasks, and the h* fields are the per-world
	// handler set, created once so the steady-state send paths allocate
	// no closures.
	tp           []*TProc
	hWrite       am.Handler
	hBarrier     am.Handler
	hColl        am.Handler
	hCollAcc     am.Handler
	hReply       am.Handler
	hReadReq     am.Handler
	hFetchAdd    am.Handler
	hTryLock     am.Handler
	hCAS         am.Handler
	hBulkGetReq  am.Handler
	hBulkPut     am.BulkHandler
	hBulkGetRep  am.BulkHandler

	// attached holds every hook set attached via Attach, in order; sync
	// is the subset that also wants barrier/lock region events.
	attached []am.Hooks
	sync     []SyncHooks

	elapsed sim.Time
}

// SyncRegion identifies a synchronization-layer region for SyncHooks.
type SyncRegion uint8

const (
	// RegionBarrier spans a Barrier call (store-sync included).
	RegionBarrier SyncRegion = iota
	// RegionLock spans a Lock call's acquisition spin.
	RegionLock
)

func (r SyncRegion) String() string {
	if r == RegionLock {
		return "lock"
	}
	return "barrier"
}

// SyncHooks is the optional extension for hooks that want to know when a
// processor is inside a synchronization region, so time spent there —
// including the compute charged by lock retries — can be attributed to
// barrier or lock wait rather than to the mechanism underneath. Enter and
// Exit run synchronously on the simulating goroutine and nest (a barrier
// may complete stores, a lock spin polls the network).
type SyncHooks interface {
	SyncEnter(proc int, r SyncRegion, at sim.Time)
	SyncExit(proc int, r SyncRegion, at sim.Time)
}

type barrierState struct {
	// recvCount[r] counts round-r notifications ever received; cumulative
	// counters make the dissemination barrier robust to epoch skew.
	recvCount []int64
	episodes  int64
}

type collState struct {
	// vals[r] queues the round-r operand values received, in arrival order.
	vals [][]uint64
}

// Config collects every World construction knob. The zero value of each
// field is a valid default (but Procs and Params must be set).
type Config struct {
	// Procs is the processor count.
	Procs int
	// Params is the LogGP machine.
	Params logp.Params
	// Seed seeds the per-processor PRNGs.
	Seed int64
	// TimeLimit bounds virtual time; runs exceeding it fail with
	// sim.ErrTimeLimit. Zero means unlimited.
	TimeLimit sim.Time
	// Collectives selects the collective algorithms (see the Collectives
	// type); the zero value keeps the historical defaults.
	Collectives Collectives
}

// NewWorld builds a world with p processors and the given network.
func NewWorld(p int, params logp.Params, seed int64) (*World, error) {
	return NewWorldCfg(Config{Procs: p, Params: params, Seed: seed})
}

// NewWorldCfg builds a world from a full Config, resolving the
// collective selection (including "auto" fields, tuned against cfg's own
// machine) before the first processor runs.
func NewWorldCfg(cfg Config) (*World, error) {
	sel, err := resolveCollectives(cfg.Collectives, cfg.Procs, cfg.Params)
	if err != nil {
		return nil, err
	}
	eng := sim.New(sim.Config{Procs: cfg.Procs, Seed: cfg.Seed, TimeLimit: cfg.TimeLimit})
	m, err := am.NewMachine(eng, cfg.Params)
	if err != nil {
		return nil, err
	}
	w := &World{eng: eng, m: m, sel: sel}
	w.mem = make([][]uint64, cfg.Procs)
	w.barrier = make([]barrierState, cfg.Procs)
	w.coll = make([]collState, cfg.Procs)
	return w, nil
}

// barrierOf returns processor id's barrier state, allocating the slots
// the selected barrier algorithm needs on first touch. Lazy so that a
// million-processor world pays for synchronization state only on
// processors that synchronize; the allocation happens outside virtual
// time, so laziness cannot perturb a schedule.
func (w *World) barrierOf(id int) *barrierState {
	bs := &w.barrier[id]
	if bs.recvCount == nil {
		bs.recvCount = make([]int64, w.sel.barSlots)
	}
	return bs
}

// collOf returns processor id's collective operand queues, allocating
// the tag table (sized by the world's tag-space layout; see coll.go) on
// first touch. Same laziness rationale as barrierOf.
func (w *World) collOf(id int) *collState {
	cs := &w.coll[id]
	if cs.vals == nil {
		cs.vals = make([][]uint64, w.sel.numTags)
	}
	return cs
}

// logRounds returns ⌈log2 p⌉ (and ≥1 so P=1 still has state).
func logRounds(p int) int {
	r := 0
	for 1<<r < p {
		r++
	}
	if r == 0 {
		r = 1
	}
	return r
}

// Attach adds instrumentation to the world: each hook set receives every
// message event and time charge (am.Hooks), raw clock advances when it
// implements am.ClockHooks, and barrier/lock region events when it
// implements SyncHooks. Call it before Run, and call it once per hook
// set (repeated calls accumulate).
func (w *World) Attach(hooks ...am.Hooks) {
	for _, h := range hooks {
		if h == nil {
			continue
		}
		w.attached = append(w.attached, h)
		if sh, ok := h.(SyncHooks); ok {
			w.sync = append(w.sync, sh)
		}
	}
	switch len(w.attached) {
	case 0:
		w.m.SetHooks(nil)
	case 1:
		w.m.SetHooks(w.attached[0])
	default:
		w.m.SetHooks(am.MultiHooks(w.attached))
	}
}

// Attached returns the hook sets attached so far, in attach order.
func (w *World) Attached() []am.Hooks {
	out := make([]am.Hooks, len(w.attached))
	copy(out, w.attached)
	return out
}

func (p *Proc) syncEnter(r SyncRegion) {
	for _, h := range p.w.sync {
		h.SyncEnter(p.sp.ID(), r, p.sp.Clock())
	}
}

func (p *Proc) syncExit(r SyncRegion) {
	for _, h := range p.w.sync {
		h.SyncExit(p.sp.ID(), r, p.sp.Clock())
	}
}

// Engine exposes the underlying simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// Machine exposes the underlying Active Message machine.
func (w *World) Machine() *am.Machine { return w.m }

// Stats exposes the communication instrumentation.
func (w *World) Stats() *am.Stats { return w.m.Stats() }

// P returns the processor count.
func (w *World) P() int { return w.eng.P() }

// Elapsed returns the virtual makespan of the last Run.
func (w *World) Elapsed() sim.Time { return w.elapsed }

// Run executes body on every processor SPMD-style. A final barrier is
// implied so that all in-flight communication quiesces before any
// processor's body is considered complete.
func (w *World) Run(body func(p *Proc)) error {
	err := w.eng.Run(func(sp *sim.Proc) {
		p := &Proc{w: w, ep: w.m.Endpoint(sp.ID()), sp: sp}
		body(p)
		p.Barrier()
		p.closePhase()
	})
	w.elapsed = w.eng.MaxClock()
	return err
}

// Proc is one processor's view of the world, passed to SPMD bodies.
type Proc struct {
	w  *World
	ep *am.Endpoint
	sp *sim.Proc

	storeByteCount int64 // bytes written by pipelined stores since reset
	failedLocks    int64 // TryLock retries burned inside Lock

	phaseName  string   // active phase label ("" = unlabeled)
	phaseStart sim.Time // clock at the last EnterPhase
}

// ID returns the processor number in [0, P).
func (p *Proc) ID() int { return p.sp.ID() }

// P returns the processor count.
func (p *Proc) P() int { return p.w.P() }

// World returns the enclosing world.
func (p *Proc) World() *World { return p.w }

// EP exposes the raw Active Message endpoint for applications that need
// custom message types (for example Mur-phi's state distribution).
func (p *Proc) EP() *am.Endpoint { return p.ep }

// Rand returns the processor's deterministic PRNG.
func (p *Proc) Rand() *rand.Rand { return p.sp.Rand() }

// Now returns the processor's virtual clock.
func (p *Proc) Now() sim.Time { return p.sp.Clock() }

// Compute charges local computation time (scaled by the machine's CPU
// factor).
func (p *Proc) Compute(d sim.Time) { p.ep.Compute(d) }

// ComputeUs charges local computation time given in microseconds.
func (p *Proc) ComputeUs(us float64) { p.ep.Compute(sim.FromMicros(us)) }

// Poll services any arrived messages (handlers run, o_recv is charged).
// Long local compute loops should poll periodically, as real Split-C
// programs do implicitly at communication points.
func (p *Proc) Poll() { p.ep.Poll() }

// GPtr is a global pointer: a (processor, word-offset) pair into the
// global heap. The zero GPtr is a valid pointer to word 0 of processor 0's
// heap; use Nil-style sentinels at the application level if needed.
type GPtr struct {
	Proc int32
	Off  int32
}

// Pack encodes g into one message word.
func (g GPtr) Pack() uint64 { return uint64(uint32(g.Proc))<<32 | uint64(uint32(g.Off)) }

// UnpackGPtr reverses GPtr.Pack.
func UnpackGPtr(w uint64) GPtr {
	return GPtr{Proc: int32(w >> 32), Off: int32(uint32(w))}
}

// Add returns g advanced by n words.
func (g GPtr) Add(n int) GPtr { return GPtr{Proc: g.Proc, Off: g.Off + int32(n)} }

func (g GPtr) String() string { return fmt.Sprintf("g[%d:%d]", g.Proc, g.Off) }

// Alloc reserves n words in the calling processor's global heap and
// returns a pointer to them. Allocation is local; share pointers by
// message or collectives.
func (p *Proc) Alloc(n int) GPtr {
	id := p.ID()
	off := len(p.w.mem[id])
	p.w.mem[id] = append(p.w.mem[id], make([]uint64, n)...)
	return GPtr{Proc: int32(id), Off: int32(off)}
}

// Local returns a direct slice view of n words at g, which must live on
// the calling processor.
func (p *Proc) Local(g GPtr, n int) []uint64 {
	if int(g.Proc) != p.ID() {
		panic(fmt.Sprintf("splitc: Local(%v) on proc %d", g, p.ID()))
	}
	return p.w.mem[g.Proc][g.Off : int(g.Off)+n]
}

func (w *World) word(g GPtr) *uint64 { return &w.mem[g.Proc][g.Off] }
