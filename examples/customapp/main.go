// Customapp: writing your own SPMD program against the library — a
// distributed 1-D heat diffusion stencil with halo exchange, the classic
// bulk-synchronous pattern. Shows global allocation, pipelined writes for
// halos, barriers, and an all-reduce convergence test, plus how machine
// parameters change the program's behavior.
package main

import (
	"fmt"
	"log"
	"math"

	"repro"
)

const (
	procs    = 8
	cellsPer = 512 // interior cells per processor
	maxSteps = 200
	fixedOne = 1 << 20 // fixed-point scale of the convergence all-reduce
)

// run executes the stencil on one machine and returns (steps, virtual
// seconds, residual).
func run(params repro.Params) (int, float64, float64) {
	w, err := repro.NewWorld(procs, params, 1)
	if err != nil {
		log.Fatal(err)
	}
	// Layout per proc: [left-halo, cell0..cellN-1, right-halo].
	field := make([]repro.GPtr, procs)
	steps := 0
	var residual float64

	err = w.Run(func(p *repro.Proc) {
		me := p.ID()
		field[me] = p.Alloc(cellsPer + 2)
		loc := p.Local(field[me], cellsPer+2)
		for i := 1; i <= cellsPer; i++ {
			// A hot spike in the middle of the global domain.
			gi := me*cellsPer + i - 1
			if gi == procs*cellsPer/2 {
				loc[i] = math.Float64bits(1000.0)
			} else {
				loc[i] = math.Float64bits(0.0)
			}
		}
		p.Barrier()

		cur := make([]float64, cellsPer+2)
		next := make([]float64, cellsPer+2)
		for s := 0; s < maxSteps; s++ {
			// Halo exchange: push boundary cells into the neighbors'
			// halo slots with pipelined writes; the barrier completes them.
			if me > 0 {
				p.WriteWord(field[me-1].Add(cellsPer+1), loc[1])
			}
			if me < procs-1 {
				p.WriteWord(field[me+1], loc[cellsPer])
			}
			p.Barrier()

			for i := 0; i <= cellsPer+1; i++ {
				cur[i] = math.Float64frombits(loc[i])
			}
			var localDelta float64
			for i := 1; i <= cellsPer; i++ {
				next[i] = cur[i] + 0.25*(cur[i-1]-2*cur[i]+cur[i+1])
				localDelta += math.Abs(next[i] - cur[i])
			}
			p.ComputeUs(0.05 * cellsPer) // the stencil's arithmetic
			for i := 1; i <= cellsPer; i++ {
				loc[i] = math.Float64bits(next[i])
			}

			// Convergence: sum of |Δ| across the whole domain, reduced in
			// fixed point so the built-in integer sum can combine it.
			fixed := uint64(math.Round(localDelta * fixedOne))
			total := float64(p.AllReduceOp(fixed, repro.OpSum)) / fixedOne
			p.Barrier()
			if me == 0 {
				steps = s + 1
				residual = total
			}
			if total < 1.0 {
				break
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return steps, w.Elapsed().Seconds(), residual
}

func main() {
	fmt.Println("1-D heat diffusion, halo exchange over the global address space")
	for _, m := range []struct {
		name   string
		params repro.Params
	}{
		{"Berkeley NOW", repro.NOW()},
		{"LAN stack (+100µs o)", repro.LAN()},
	} {
		steps, secs, res := run(m.params)
		fmt.Printf("%-22s %3d steps, residual %6.2f, virtual %.4fs\n", m.name, steps, res, secs)
	}
	fmt.Println("\nSame program, same answers — the slow machine just takes longer,")
	fmt.Println("which is precisely the experiment the paper runs at cluster scale.")
}
