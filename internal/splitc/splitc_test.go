package splitc

import (
	"testing"
	"testing/quick"

	"repro/internal/logp"
	"repro/internal/sim"
)

func newTestWorld(t *testing.T, p int) *World {
	t.Helper()
	w, err := NewWorld(p, logp.NOW(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestReadWriteRemote(t *testing.T) {
	w := newTestWorld(t, 4)
	var ptrs [4]GPtr
	err := w.Run(func(p *Proc) {
		ptrs[p.ID()] = p.Alloc(8)
		for i, s := range p.Local(ptrs[p.ID()], 8) {
			_ = s
			p.Local(ptrs[p.ID()], 8)[i] = uint64(p.ID()*100 + i)
		}
		p.Barrier()
		// Every proc reads word 3 of every other proc.
		for q := 0; q < p.P(); q++ {
			got := p.ReadWord(ptrs[q].Add(3))
			if got != uint64(q*100+3) {
				t.Errorf("proc %d read %d from proc %d, want %d", p.ID(), got, q, q*100+3)
			}
		}
		p.Barrier()
		// Every proc writes into its right neighbor.
		right := (p.ID() + 1) % p.P()
		p.WriteWord(ptrs[right].Add(7), uint64(1000+p.ID()))
		p.Barrier()
		left := (p.ID() - 1 + p.P()) % p.P()
		if got := p.Local(ptrs[p.ID()], 8)[7]; got != uint64(1000+left) {
			t.Errorf("proc %d word 7 = %d, want %d", p.ID(), got, 1000+left)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLocalFastPaths(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) {
		g := p.Alloc(4)
		before := p.Now()
		p.WriteWord(g, 42)
		if got := p.ReadWord(g); got != 42 {
			t.Errorf("local read = %d, want 42", got)
		}
		if p.Now() != before {
			t.Errorf("local read/write cost virtual time: %v", p.Now()-before)
		}
		if got := p.FetchAdd(g, 5); got != 42 {
			t.Errorf("local FetchAdd returned %d, want 42", got)
		}
		if got := p.ReadWord(g); got != 47 {
			t.Errorf("after FetchAdd = %d, want 47", got)
		}
		if !p.TryLock(g.Add(1)) {
			t.Error("local TryLock on free lock failed")
		}
		if p.TryLock(g.Add(1)) {
			t.Error("local TryLock on held lock succeeded")
		}
		p.Unlock(g.Add(1))
		if !p.TryLock(g.Add(1)) {
			t.Error("local TryLock after Unlock failed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 5, 8, 16, 32} {
		w := newTestWorld(t, procs)
		phase := make([]int, procs)
		err := w.Run(func(p *Proc) {
			for round := 0; round < 5; round++ {
				// Skewed work before the barrier.
				p.ComputeUs(float64((p.ID()*37+round*13)%97) + 1)
				phase[p.ID()] = round
				p.Barrier()
				// After the barrier everyone must have finished this round.
				for q := 0; q < p.P(); q++ {
					if phase[q] < round {
						t.Errorf("P=%d: proc %d at round %d saw proc %d still in %d",
							procs, p.ID(), round, q, phase[q])
					}
				}
				p.Barrier()
			}
		})
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
	}
}

func TestBarrierImpliesStoreCompletion(t *testing.T) {
	w := newTestWorld(t, 8)
	var target GPtr
	err := w.Run(func(p *Proc) {
		if p.ID() == 0 {
			target = p.Alloc(8)
		}
		p.Barrier()
		p.WriteWord(target.Add(p.ID()), uint64(p.ID()+1))
		p.Barrier()
		// All stores must be visible now.
		if p.ID() == 0 {
			loc := p.Local(target, 8)
			for i, v := range loc {
				if v != uint64(i+1) {
					t.Errorf("word %d = %d, want %d", i, v, i+1)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierCountsEpisodes(t *testing.T) {
	w := newTestWorld(t, 4)
	err := w.Run(func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 explicit + 1 implicit final barrier.
	if got := w.Stats().Barriers; got != 4 {
		t.Errorf("barrier count = %d, want 4", got)
	}
}

func TestAllReduceSum(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 4, 7, 16, 32} {
		w := newTestWorld(t, procs)
		err := w.Run(func(p *Proc) {
			want := uint64(procs * (procs - 1) / 2)
			for round := 0; round < 3; round++ {
				got := p.AllReduceSum(uint64(p.ID()))
				if got != want {
					t.Errorf("P=%d round %d: proc %d AllReduceSum = %d, want %d",
						procs, round, p.ID(), got, want)
				}
			}
		})
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
	}
}

func TestAllReduceMax(t *testing.T) {
	w := newTestWorld(t, 9)
	err := w.Run(func(p *Proc) {
		got := p.AllReduceMax(uint64((p.ID() * 31) % 9))
		if got != 8 {
			t.Errorf("proc %d AllReduceMax = %d, want 8", p.ID(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcast(t *testing.T) {
	for _, procs := range []int{1, 2, 5, 8, 32} {
		w := newTestWorld(t, procs)
		err := w.Run(func(p *Proc) {
			for root := 0; root < p.P(); root++ {
				val := uint64(0)
				if p.ID() == root {
					val = uint64(root*71 + 13)
				}
				got := p.Broadcast(root, val)
				if want := uint64(root*71 + 13); got != want {
					t.Errorf("P=%d root %d: proc %d got %d, want %d", procs, root, p.ID(), got, want)
				}
			}
		})
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
	}
}

func TestFetchAddRemote(t *testing.T) {
	w := newTestWorld(t, 8)
	var counter GPtr
	err := w.Run(func(p *Proc) {
		if p.ID() == 0 {
			counter = p.Alloc(1)
		}
		p.Barrier()
		// Every proc claims 10 distinct tickets.
		seen := make(map[uint64]bool)
		for i := 0; i < 10; i++ {
			v := p.FetchAdd(counter, 1)
			if seen[v] {
				t.Errorf("proc %d got duplicate ticket %d", p.ID(), v)
			}
			seen[v] = true
		}
		p.Barrier()
		if p.ID() == 0 {
			if got := p.ReadWord(counter); got != 80 {
				t.Errorf("final counter = %d, want 80", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	w := newTestWorld(t, 8)
	var lock, data GPtr
	err := w.Run(func(p *Proc) {
		if p.ID() == 0 {
			lock = p.Alloc(1)
			data = p.Alloc(1)
		}
		p.Barrier()
		for i := 0; i < 5; i++ {
			p.Lock(lock)
			// Critical section: unsynchronized read-modify-write, with a
			// compute delay that would expose races to other processors.
			v := p.ReadWord(data)
			p.ComputeUs(20)
			p.WriteWordSync(data, v+1)
			p.Unlock(lock)
			p.StoreSync()
		}
		p.Barrier()
		if p.ID() == 0 {
			if got := p.ReadWord(data); got != 40 {
				t.Errorf("counter under lock = %d, want 40", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBulkPutGet(t *testing.T) {
	w := newTestWorld(t, 4)
	var ptrs [4]GPtr
	const n = 1500 // ~3 fragments of 512 words
	err := w.Run(func(p *Proc) {
		ptrs[p.ID()] = p.Alloc(n)
		p.Barrier()
		// Put a pattern into the right neighbor.
		right := (p.ID() + 1) % p.P()
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(p.ID()<<20 + i)
		}
		p.BulkPut(ptrs[right], vals)
		p.Barrier()
		// Get it back from our own heap via a remote round trip from the
		// left neighbor's perspective.
		left := (p.ID() - 1 + p.P()) % p.P()
		got := p.BulkGet(ptrs[p.ID()], n)
		for i := range got {
			if got[i] != uint64(left<<20+i) {
				t.Fatalf("proc %d word %d = %d, want %d", p.ID(), i, got[i], left<<20+i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBulkGetRemoteTiming(t *testing.T) {
	// A remote 512-word (4 KB) get must cost at least the bulk DMA time.
	w := newTestWorld(t, 2)
	var g GPtr
	err := w.Run(func(p *Proc) {
		if p.ID() == 1 {
			g = p.Alloc(512)
		}
		p.Barrier()
		if p.ID() == 0 {
			start := p.Now()
			p.BulkGet(g, 512)
			elapsed := p.Now() - start
			min := w.Machine().Params().BulkTime(4096)
			if elapsed < min {
				t.Errorf("remote 4KB get took %v, below DMA floor %v", elapsed, min)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGPtrPackUnpack(t *testing.T) {
	f := func(proc int16, off int32) bool {
		if off < 0 {
			off = -off
		}
		g := GPtr{Proc: int32(proc), Off: off}
		return UnpackGPtr(g.Pack()) == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsClassification(t *testing.T) {
	w := newTestWorld(t, 2)
	var g GPtr
	err := w.Run(func(p *Proc) {
		if p.ID() == 1 {
			g = p.Alloc(64)
		}
		p.Barrier()
		if p.ID() == 0 {
			p.ReadWord(g)             // 2 read msgs (req+reply)
			p.WriteWord(g, 1)         // 1 write msg
			p.BulkGet(g, 64)          // 1 read req + 1 bulk read reply
			p.BulkPut(g, []uint64{1}) // 1 bulk write
			p.StoreSync()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if got := s.TotalReads(); got != 4 {
		t.Errorf("read messages = %d, want 4", got)
	}
	if got := s.TotalBulk(); got != 2 {
		t.Errorf("bulk messages = %d, want 2", got)
	}
	if got := s.TotalBulkBytes(); got != 64*8+8 {
		t.Errorf("bulk bytes = %d, want %d", got, 64*8+8)
	}
}

func TestElapsedAndDeterminism(t *testing.T) {
	run := func() sim.Time {
		w := newTestWorld(t, 8)
		err := w.Run(func(p *Proc) {
			g := p.Alloc(1)
			p.Barrier()
			for i := 0; i < 20; i++ {
				p.WriteWord(GPtr{Proc: int32((p.ID() + 1) % 8), Off: g.Off}, uint64(i))
				p.ComputeUs(3)
			}
			p.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Elapsed()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic elapsed: %v vs %v", a, b)
	}
	if run() == 0 {
		t.Error("elapsed = 0")
	}
}

func TestOverheadSlowsWorld(t *testing.T) {
	// Sanity for the whole stack: the same program under +100 µs overhead
	// must run much slower.
	elapsed := func(deltaO float64) sim.Time {
		params := logp.NOW()
		params.DeltaO = sim.FromMicros(deltaO)
		w, err := NewWorld(4, params, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(p *Proc) {
			g := p.Alloc(1)
			p.Barrier()
			right := (p.ID() + 1) % p.P()
			for i := 0; i < 50; i++ {
				p.WriteWord(GPtr{Proc: int32(right), Off: g.Off}, uint64(i))
			}
			p.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		return w.Elapsed()
	}
	base, slow := elapsed(0), elapsed(100)
	if slow < 10*base {
		t.Errorf("Δo=100µs slowdown = %.1fx, want >10x (base %v, slow %v)",
			float64(slow)/float64(base), base, slow)
	}
}

func TestRunError(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) {
		if p.ID() == 0 {
			panic("app bug")
		}
		p.Barrier()
	})
	if err == nil {
		t.Fatal("expected error from panicking body")
	}
}

func TestTimeLimitWorld(t *testing.T) {
	w, err := NewWorldCfg(Config{Procs: 2, Params: logp.NOW(), Seed: 1, TimeLimit: 100 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *Proc) {
		for {
			p.ComputeUs(10)
			p.Poll()
		}
	})
	if err == nil {
		t.Fatal("expected time-limit error")
	}
}
