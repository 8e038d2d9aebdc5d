// Quickstart: design an ideal AuT for a human-activity-recognition
// workload in three calls — define the spec, run the search, verify the
// winner on the co-simulator.
package main

import (
	"fmt"
	"log"

	"chrysalis"
)

func main() {
	// 1. The design problem: HAR on an MSP430-class platform,
	//    minimizing the latency × panel-area product.
	spec := chrysalis.Spec{
		WorkloadName: "har",
		Platform:     chrysalis.MSP430,
		Objective:    chrysalis.MinimizeLatTimesSP,
		Search:       chrysalis.SearchConfig{Budget: 400, Seed: 42},
	}

	// 2. Search the joint energy/inference design space.
	res, err := chrysalis.Design(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ideal AuT configuration:")
	fmt.Printf("  solar panel: %v\n", res.PanelArea)
	fmt.Printf("  capacitor:   %v\n", res.Cap)
	fmt.Printf("  avg latency: %v (lat*sp %.2f cm²·s)\n", res.AvgLatency, res.LatSP)
	for _, d := range res.Dataflow {
		fmt.Printf("  layer %-8s -> %s/%s, %d tile(s), %v checkpoint\n",
			d.Layer, d.Dataflow, d.Partition, d.NTile, d.CkptBytes)
	}

	// 3. Cross-check the analytic estimate with the co-simulator
	// (Spec.SimMode selects the core; the default event-driven core
	// agrees with the step oracle on every counter).
	run, err := chrysalis.Verify(spec, res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated (bright): completed=%v latency=%v over %d power cycles\n",
		run.Completed, run.E2ELatency, run.PowerCycles)
	fmt.Printf("energy: %v inference, %v checkpointing, %.1f%% system efficiency\n",
		run.Breakdown.Infer, run.Breakdown.Ckpt, run.SystemEfficiency*100)
}
