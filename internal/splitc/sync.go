package splitc

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/sim"
)

// Barrier synchronizes all processors with the world's selected barrier
// algorithm (Config.Collectives; the dissemination barrier by default).
// Every algorithm first waits for the caller's outstanding stores
// (Split-C barriers imply store completion).
func (p *Proc) Barrier() { p.w.sel.barrier.run(p) }

// barrierDissem is the dissemination barrier: in round r the processor
// notifies (id+2^r) mod P and waits for the notification from (id-2^r)
// mod P. ⌈log2 P⌉ rounds of short sync messages; round-trip free but
// latency-sensitive.
//
// Round counters are cumulative, which makes the algorithm robust to
// processors being a full episode apart: per-pair FIFO delivery means
// "count ≥ episode" implies all earlier episodes arrived too.
func (p *Proc) barrierDissem() {
	p.syncEnter(RegionBarrier)
	p.StoreSync()
	w := p.w
	me := p.ID()
	P := p.P()
	if P == 1 {
		w.m.Stats().CountBarrier()
		p.syncExit(RegionBarrier)
		return
	}
	bs := w.barrierOf(me)
	bs.episodes++
	target := bs.episodes
	for r := 0; 1<<r < P; r++ {
		dst := (me + 1<<r) % P
		round := uint64(r)
		p.ep.Request(dst, am.ClassSync, func(ep *am.Endpoint, tok *am.Token, a am.Args) {
			w.barrierOf(ep.ID()).recvCount[a[0]]++
		}, am.Args{round})
		rr := r
		p.ep.WaitUntilFor(am.WaitBarrier, func() bool { return bs.recvCount[rr] >= target }, "splitc: barrier")
	}
	if me == 0 {
		w.m.Stats().CountBarrier()
	}
	p.syncExit(RegionBarrier)
}

// Collective message tags come from the world's tag-space allocator
// (see coll.go): the selected all-reduce and broadcast algorithms each
// own a disjoint block, and scan/gather/all-to-all continue the space in
// collectives.go. reduceTag and arBcastTag address the tree all-reduce's
// two sub-blocks (reduce rounds, then its broadcast rounds).
func (w *World) reduceTag(r int) int  { return w.sel.arBase + r }
func (w *World) arBcastTag(r int) int { return w.sel.arBase + logRounds(w.P()) + r }

// sendColl ships one operand word to dst under the given tag.
func (p *Proc) sendColl(dst, tag int, val uint64) {
	w := p.w
	p.ep.Request(dst, am.ClassSync, func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		cs := w.collOf(ep.ID())
		cs.vals[a[0]] = append(cs.vals[a[0]], a[1])
	}, am.Args{uint64(tag), val})
}

// recvColl blocks until a value under tag is available and pops it.
func (p *Proc) recvColl(tag int) uint64 {
	cs := p.w.collOf(p.ID())
	p.ep.WaitUntilFor(am.WaitBarrier, func() bool { return len(cs.vals[tag]) > 0 }, "splitc: collective recv")
	v := cs.vals[tag][0]
	cs.vals[tag] = cs.vals[tag][1:]
	return v
}

// allReduceTreeFn is the reduce-broadcast tree all-reduce: binomial-tree
// reduce to processor 0 followed by a binomial broadcast, 2·⌈log2 P⌉
// message rounds.
func (p *Proc) allReduceTreeFn(val uint64, op func(a, b uint64) uint64) uint64 {
	w := p.w
	me := p.ID()
	P := p.P()
	acc := val
	// Reduce toward processor 0: at round r, processors with bit r set
	// send their partial to the neighbor below and drop out; the others
	// absorb a partial from the neighbor above (when it exists).
	for r := 0; 1<<r < P; r++ {
		mask := 1 << r
		if me&mask != 0 {
			p.sendColl(me&^mask, w.reduceTag(r), acc)
			break
		}
		if me+mask < P {
			acc = op(acc, p.recvColl(w.reduceTag(r)))
		}
	}
	// Broadcast the total from processor 0.
	return p.bcastTree(0, acc, w.arBcastTag(0))
}

// bcastTree runs a binomial broadcast rooted at root; acc is the value at
// the root (ignored elsewhere). base is the collective's tag block (tag
// base+r for round r) so different collectives don't interleave. Virtual
// ids are rotated so the root plays id 0: vid receives in the round
// matching its highest set bit and forwards in every later round r to
// vid+2^r.
func (p *Proc) bcastTree(root int, acc uint64, base int) uint64 {
	me := p.ID()
	P := p.P()
	rounds := logRounds(P)
	vid := (me - root + P) % P
	first := 0
	if vid != 0 {
		j := highestBit(vid)
		acc = p.recvColl(base + j)
		first = j + 1
	}
	for r := first; r < rounds; r++ {
		child := vid + 1<<r
		if vid < 1<<r && child < P {
			p.sendColl((child+root)%P, base+r, acc)
		}
	}
	return acc
}

// Broadcast distributes root's val to all processors with the world's
// selected broadcast algorithm (binomial tree by default).
func (p *Proc) Broadcast(root int, val uint64) uint64 {
	P := p.P()
	if P == 1 {
		return val
	}
	if root < 0 || root >= P {
		panic(fmt.Sprintf("splitc: Broadcast root %d out of range", root))
	}
	return p.w.sel.bcast.run(p, root, val)
}

func highestBit(v int) int {
	j := -1
	for v != 0 {
		v >>= 1
		j++
	}
	return j
}

// AllReduceOp combines one word from every processor with a built-in
// operator, using the world's selected all-reduce algorithm, and returns
// the result everywhere.
func (p *Proc) AllReduceOp(val uint64, op ReduceOp) uint64 {
	if p.P() == 1 {
		return val
	}
	return p.w.sel.ar.run(p, val, op)
}

// AllReduceSum sums one word across processors.
func (p *Proc) AllReduceSum(v uint64) uint64 { return p.AllReduceOp(v, OpSum) }

// AllReduceMax takes the maximum of one word across processors.
func (p *Proc) AllReduceMax(v uint64) uint64 { return p.AllReduceOp(v, OpMax) }

// FetchAdd atomically adds delta to the word at g and returns the previous
// value. Remote: one sync-class round trip; local: direct.
func (p *Proc) FetchAdd(g GPtr, delta uint64) uint64 {
	if int(g.Proc) == p.ID() {
		ptr := p.w.word(g)
		old := *ptr
		*ptr += delta
		return old
	}
	w := p.w
	var old uint64
	done := false
	p.ep.Request(int(g.Proc), am.ClassSync, func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		ptr := &w.mem[a[0]>>32][uint32(a[0])]
		v := *ptr
		*ptr += a[1]
		ep.Reply(tok, func(ep *am.Endpoint, tok *am.Token, a am.Args) {
			old = a[0]
			done = true
		}, am.Args{v})
	}, am.Args{g.Pack(), delta})
	p.ep.WaitUntilFor(am.WaitLock, func() bool { return done }, "splitc: fetch-add")
	return old
}

// TryLock attempts to acquire the lock word at g (0 free, 1 held).
// Remote: one sync-class round trip that test-and-sets on the owner.
func (p *Proc) TryLock(g GPtr) bool {
	if int(g.Proc) == p.ID() {
		ptr := p.w.word(g)
		if *ptr == 0 {
			*ptr = 1
			return true
		}
		return false
	}
	w := p.w
	var got bool
	done := false
	p.ep.Request(int(g.Proc), am.ClassSync, func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		ptr := &w.mem[a[0]>>32][uint32(a[0])]
		var res uint64
		if *ptr == 0 {
			*ptr = 1
			res = 1
		}
		ep.Reply(tok, func(ep *am.Endpoint, tok *am.Token, a am.Args) {
			got = a[0] == 1
			done = true
		}, am.Args{res})
	}, am.Args{g.Pack()})
	p.ep.WaitUntilFor(am.WaitLock, func() bool { return done }, "splitc: try-lock")
	return got
}

// lockSpinCost is the charged cost of one local test-and-set retry
// iteration (load, branch, backoff) in the Lock spin loop.
const lockSpinCost = 200 * sim.Nanosecond

// Lock spins on TryLock until it acquires g, as the paper's Barnes does —
// under high overhead this retry traffic is exactly what drives its
// livelock. Each failed local attempt costs a spin iteration and services
// the network (a spinning Split-C processor still polls, or remote
// test-and-set requests to it could never be answered); remote attempts
// are paced by their own round trips. FailedLockAttempts counts retries.
func (p *Proc) Lock(g GPtr) {
	p.syncEnter(RegionLock)
	for !p.TryLock(g) {
		p.failedLocks++
		p.Compute(lockSpinCost)
		p.Poll()
	}
	p.syncExit(RegionLock)
}

// Unlock releases the lock word at g with a pipelined store.
func (p *Proc) Unlock(g GPtr) {
	p.WriteWord(g, 0)
}

// FailedLockAttempts reports how many TryLock retries Lock has burned —
// the paper instruments Barnes with exactly this counter.
func (p *Proc) FailedLockAttempts() int64 { return p.failedLocks }

// CompareSwap atomically replaces the word at g with next if it equals old,
// reporting success. Remote: one sync-class round trip; local: direct.
func (p *Proc) CompareSwap(g GPtr, old, next uint64) bool {
	if int(g.Proc) == p.ID() {
		ptr := p.w.word(g)
		if *ptr == old {
			*ptr = next
			return true
		}
		return false
	}
	w := p.w
	var ok, done bool
	p.ep.Request(int(g.Proc), am.ClassSync, func(ep *am.Endpoint, tok *am.Token, a am.Args) {
		ptr := &w.mem[a[0]>>32][uint32(a[0])]
		var res uint64
		if *ptr == a[1] {
			*ptr = a[2]
			res = 1
		}
		ep.Reply(tok, func(ep *am.Endpoint, tok *am.Token, a am.Args) {
			ok = a[0] == 1
			done = true
		}, am.Args{res})
	}, am.Args{g.Pack(), old, next})
	p.ep.WaitUntilFor(am.WaitLock, func() bool { return done }, "splitc: compare-swap")
	return ok
}
