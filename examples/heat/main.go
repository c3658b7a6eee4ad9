// Heat: the full workload the paper's transpose exists for — solving the
// 2-D heat equation with the Peaceman–Rachford ADI method ([5, 10] in the
// paper). Every time step does two implicit sweeps with a distributed
// transpose between them; the transpose is the multiphase complete
// exchange.
//
//	go run ./examples/heat
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/topology"
)

func main() {
	const (
		nProc = 8 // d = 3
		bs    = 4 // 32×32 interior grid
		nu    = 0.05
		dt    = 0.001
		steps = 20
	)
	side := nProc * bs
	h := 1.0 / float64(side+1)
	prm := model.IPSC860()

	// Initial condition: the fundamental mode sin(πx)sin(πy), which
	// decays as exp(−2π²νt) — an exact yardstick.
	grid, err := apps.NewBlockMatrix(nProc, bs, func(r, c int) float64 {
		x := float64(c+1) * h
		y := float64(r+1) * h
		return apps.HeatAnalytic(x, y, 0, nu)
	})
	if err != nil {
		log.Fatal(err)
	}

	// What does each transpose cost on the modeled machine?
	sys, err := core.NewSystemOn(topology.MustNew(3), prm)
	if err != nil {
		log.Fatal(err)
	}
	blockBytes := bs * bs * 8
	ex, err := sys.CompleteExchange(blockBytes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid %d×%d on %d nodes; transpose = complete exchange of %dB blocks\n",
		side, side, nProc, blockBytes)
	fmt.Printf("optimizer picks %v per transpose: %.1f µs simulated; 2 transposes per step\n\n",
		ex.Partition, ex.SimulatedMicros)

	start := time.Now()
	if err := apps.ADIHeat(grid, prm, nu, dt, h, steps, time.Minute); err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	tEnd := dt * steps
	var maxErr, maxVal float64
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			x := float64(c+1) * h
			y := float64(r+1) * h
			want := apps.HeatAnalytic(x, y, tEnd, nu)
			if e := math.Abs(grid.At(r, c) - want); e > maxErr {
				maxErr = e
			}
			if v := math.Abs(grid.At(r, c)); v > maxVal {
				maxVal = v
			}
		}
	}
	decay := math.Exp(-2 * math.Pi * math.Pi * nu * tEnd)
	fmt.Printf("after %d ADI steps (t = %.3f): %v wall clock, %d transposes\n",
		steps, tEnd, wall, 2*steps)
	fmt.Printf("peak amplitude %.6f (analytic decay factor %.6f)\n", maxVal, decay)
	fmt.Printf("max error vs analytic solution: %.2e\n", maxErr)
	if maxErr < 5e-3 {
		fmt.Println("solution tracks the analytic decay — solver verified")
	} else {
		fmt.Println("UNEXPECTED deviation from the analytic solution")
	}
}
