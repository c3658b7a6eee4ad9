// Collectives: the other communication patterns the paper's conclusion
// (§9) discusses — broadcast, scatter, gather, allgather — next to the
// complete exchange, demonstrating that the exchange upper-bounds them
// all. Each collective has a single implementation written against the
// fabric interface; the same code is costed on the simulated machine and
// verified with real payloads on the goroutine runtime below.
//
//	go run ./examples/collectives
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func main() {
	const d = 5 // 32 nodes
	const m = 64
	prm := model.IPSC860()
	cube, err := topology.New(d)
	if err != nil {
		log.Fatal(err)
	}
	net := simnet.New(cube, prm)

	fmt.Printf("collectives on a %d-node simulated iPSC-860, %dB blocks\n\n", 1<<d, m)

	kinds := []collectives.Kind{
		collectives.Broadcast, collectives.Scatter,
		collectives.Gather, collectives.AllGather,
	}

	t := report.NewTable("simulated vs modeled time per collective",
		"pattern", "model(µs)", "simulated(µs)", "messages")
	for _, k := range kinds {
		// Simulate runs the one fabric-based implementation on the
		// simulated backend: real blocks move (and are verified) while
		// the discrete-event machine prices the schedule.
		res, err := collectives.Simulate(k, net, m, 0)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(k.String(), collectives.Model(k, prm, m, d), res.Makespan, res.Messages)
	}
	// The densest pattern for comparison: the auto-tuned complete
	// exchange (paper §3: its time upper-bounds every pattern).
	sys, err := core.NewSystemOn(cube, prm)
	if err != nil {
		log.Fatal(err)
	}
	ce, err := sys.CompleteExchange(m)
	if err != nil {
		log.Fatal(err)
	}
	t.AddRow(fmt.Sprintf("complete exchange %v", ce.Partition),
		ce.PredictedMicros, ce.SimulatedMicros, 1<<d*(1<<d-1))
	fmt.Println(t)

	// The identical implementations on the other backend: pure goroutine
	// data movement, every block verified at every node.
	fmt.Println("running the same implementations on the goroutine runtime fabric...")
	for _, k := range kinds {
		fab, err := fabric.NewRuntime(1 << d)
		if err != nil {
			log.Fatal(err)
		}
		if err := collectives.RunOn(k, fab, m, 3, time.Minute); err != nil {
			log.Fatalf("%s: %v", k, err)
		}
		fmt.Printf("  %-9s ok (every block verified at every node)\n", k)
	}
}
