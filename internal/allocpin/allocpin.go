// Package allocpin attributes heap allocations to packages, for the
// zero-allocation pins. runtime.MemStats counts every malloc in the
// process — the test harness's and the runtime's background work
// included — so a pin of "0 allocations" read from it fails at random.
// An allocation profile sampled at rate 1 records each allocation with
// its stack instead, and keeping only the stacks that pass through the
// code under test makes the count exact and repeatable.
package allocpin

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// Sites runs fn with every heap allocation profiled and returns one line
// per allocation stack that holds a frame from one of pkgs (import paths,
// for example "repro/internal/sim"), with the number of objects
// allocated there while fn ran. An empty result means fn allocated
// nothing on behalf of those packages. Allocations by other goroutines
// count too when their stacks pass through pkgs, so the caller must not
// run such work concurrently with fn.
func Sites(pkgs []string, fn func()) []string {
	// The rate stays at 1 across both snapshots: the runtime profiles the
	// first allocation after any change of rate whatever the new rate is,
	// so switching sampling off around a snapshot would still record one
	// stray allocation. The snapshots' own allocations are dropped below.
	saved := runtime.MemProfileRate
	defer func() { runtime.MemProfileRate = saved }()
	runtime.MemProfileRate = 1
	before := snapshot()
	fn()
	after := snapshot()

	var sites []string
	for stk, n := range after {
		if d := n - before[stk]; d > 0 {
			if where, ok := attribute(stk, pkgs); ok {
				sites = append(sites, fmt.Sprintf("%d allocs: %s", d, where))
			}
		}
	}
	sort.Strings(sites)
	return sites
}

// snapshot returns the objects allocated so far per recorded stack. A
// completed runtime.GC publishes every allocation made before it unless
// another cycle overtook it; the second call covers that case, so the
// profile read afterwards is complete up to that point.
func snapshot() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	m := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		m[r.Stack0] += r.AllocObjects
	}
	return m
}

// attribute reports whether stk passes through one of pkgs, and not
// through snapshot, and if so renders it leaf first.
func attribute(stk [32]uintptr, pkgs []string) (string, bool) {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var names []string
	hit := false
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "/allocpin.snapshot") {
			return "", false
		}
		names = append(names, f.Function)
		for _, pkg := range pkgs {
			if strings.HasPrefix(f.Function, pkg+".") {
				hit = true
			}
		}
		if !more {
			break
		}
	}
	return strings.Join(names, " <- "), hit
}
