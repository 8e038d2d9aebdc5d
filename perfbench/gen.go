package main

// Seeded input generators. Every workload draws its inputs from a
// finite pool whose outputs the goldens record; the seed only picks the
// order and the subset a run visits, so any seed is checkable.

import (
	"fmt"
	"math/rand"
	"time"

	"chrysalis/internal/accel"
	"chrysalis/internal/core"
	"chrysalis/internal/explore"
	"chrysalis/internal/serve"
)

// objectives are the three search objectives, in wire form.
var objectives = []string{"lat", "sp", "lat*sp"}

// accel-cold: Table V workloads × objectives, one fresh search seed per
// design. accelSeeds search seeds per combination bound the pool; a
// run that outlasts it starts over with the same seeds (still cold).
var accelWorkloads = []string{"kws", "cifar10", "vgg16", "resnet18", "mobilenet-vww", "bert"}

const (
	accelSeeds  = 64
	accelBudget = 400
)

type accelDesign struct {
	Workload  string
	Objective string
	Seed      int64
}

func (d accelDesign) key() string { return fmt.Sprintf("%s|%s|%d", d.Workload, d.Objective, d.Seed) }

func (d accelDesign) spec() core.Spec {
	obj, err := explore.ParseObjective(d.Objective)
	if err != nil {
		panic(err) // objectives holds only valid names
	}
	return core.Spec{
		WorkloadName: d.Workload,
		Platform:     explore.Accel,
		Objective:    obj,
		Search:       core.SearchConfig{Budget: accelBudget, Seed: d.Seed},
	}
}

// accelStream cycles through every workload × objective combination in
// a seeded order, taking the next unused search seed of the combination
// each time, so every stretch of 18 designs has the same mix.
type accelStream struct {
	order []int
	seeds [][]int64
}

func newAccelStream(seed int64) *accelStream {
	rng := rand.New(rand.NewSource(seed))
	n := len(accelWorkloads) * len(objectives)
	s := &accelStream{order: rng.Perm(n), seeds: make([][]int64, n)}
	for c := range s.seeds {
		for _, p := range rng.Perm(accelSeeds) {
			s.seeds[c] = append(s.seeds[c], int64(p+1))
		}
	}
	return s
}

func (s *accelStream) at(i int) accelDesign {
	c := s.order[i%len(s.order)]
	cycle := i / len(s.order)
	return accelDesign{
		Workload:  accelWorkloads[c/len(objectives)],
		Objective: objectives[c%len(objectives)],
		Seed:      s.seeds[c][cycle%accelSeeds],
	}
}

// daemon-fleet: MSP430 design jobs and synchronous simulations.
var (
	fleetWorkloads = []string{"har", "kws", "cifar10", "mnist-cnn"}
	// fleetPanels are the max_panel_cm2 values near-duplicates use; 0 is
	// the server default of fresh designs.
	fleetPanels = []float64{16, 24}
	simPanels   = []float64{8, 12, 16, 20}
	simCaps     = []float64{220e-6, 470e-6, 1e-3, 2.2e-3}
)

const (
	fleetSeeds = 64
	// fleetRecent is how many recent distinct design requests repeats
	// and near-duplicates draw from.
	fleetRecent = 64
)

// Request mix of daemon-fleet, as cumulative probabilities.
const (
	shareSimulate = 0.15
	shareRepeat   = 0.30
	shareNearDup  = 0.20 // the remaining 0.35 are fresh designs
)

// fleetOp is one request of the open-loop stream.
type fleetOp struct {
	Kind   string // "fresh", "near-dup", "repeat" or "simulate"
	Node   int
	Due    time.Duration
	Design serve.DesignRequest
	Sim    serve.SimulateRequest
}

func designKey(r serve.DesignRequest) string {
	return fmt.Sprintf("%s|%s|%d|%g|%t", r.Workload, r.Objective, r.Seed, r.MaxPanelCM2, r.Verify)
}

func simKey(r serve.SimulateRequest) string {
	return fmt.Sprintf("%s|%g|%g", r.Workload, r.PanelAreaCM2, r.CapF)
}

// fleetVerify says whether a fresh design asks for a verify replay:
// three in four lat*sp designs do, a quarter of all fresh designs. The
// lat and sp winners are left out because the event-mode replay of many
// of them (panels at the 30 cm² bound) fails the capacitor-balance
// audit, which would turn a known simulator defect into failed requests
// on every run.
func fleetVerify(objective string, seed int64) bool { return objective == "lat*sp" && seed%4 != 0 }

// fleetGen produces the daemon-fleet request stream: arrivals evenly
// spaced at rate per second, alternating between the two nodes. Even
// spacing keeps the offered load the same from seed to seed; the seed
// varies only what is asked.
type fleetGen struct {
	rng    *rand.Rand
	rate   float64
	n      int
	due    time.Duration
	seeds  [][]int64
	used   []int
	recent []serve.DesignRequest
}

func newFleetGen(seed int64, rate float64) *fleetGen {
	rng := rand.New(rand.NewSource(seed))
	n := len(fleetWorkloads) * len(objectives)
	g := &fleetGen{rng: rng, rate: rate, seeds: make([][]int64, n), used: make([]int, n)}
	for c := range g.seeds {
		for _, p := range rng.Perm(fleetSeeds) {
			g.seeds[c] = append(g.seeds[c], int64(p+1))
		}
	}
	return g
}

func (g *fleetGen) remember(r serve.DesignRequest) {
	g.recent = append(g.recent, r)
	if len(g.recent) > fleetRecent {
		g.recent = g.recent[1:]
	}
}

func (g *fleetGen) next() fleetOp {
	g.due += time.Duration(float64(time.Second) / g.rate)
	op := fleetOp{Node: g.n % 2, Due: g.due}
	g.n++
	u := g.rng.Float64()
	switch {
	case u < shareSimulate:
		op.Kind = "simulate"
		op.Sim = serve.SimulateRequest{
			Workload:     fleetWorkloads[g.rng.Intn(len(fleetWorkloads))],
			PanelAreaCM2: simPanels[g.rng.Intn(len(simPanels))],
			CapF:         simCaps[g.rng.Intn(len(simCaps))],
		}
	case u < shareSimulate+shareRepeat && len(g.recent) > 0:
		op.Kind = "repeat"
		op.Design = g.recent[g.rng.Intn(len(g.recent))]
	case u < shareSimulate+shareRepeat+shareNearDup && len(g.recent) > 0:
		op.Kind = "near-dup"
		r := g.recent[g.rng.Intn(len(g.recent))]
		p := fleetPanels[g.rng.Intn(len(fleetPanels))]
		if p == r.MaxPanelCM2 {
			p = fleetPanels[0] + fleetPanels[len(fleetPanels)-1] - p
		}
		r.MaxPanelCM2 = p
		op.Design = r
		g.remember(r)
	default:
		op.Kind = "fresh"
		c := g.rng.Intn(len(g.seeds))
		seed := g.seeds[c][g.used[c]%fleetSeeds]
		g.used[c]++
		op.Design = serve.DesignRequest{
			Workload:  fleetWorkloads[c/len(objectives)],
			Platform:  "msp430",
			Objective: objectives[c%len(objectives)],
			Seed:      seed,
			Verify:    fleetVerify(objectives[c%len(objectives)], seed),
		}
		g.remember(op.Design)
	}
	return op
}

// day-series: a fixed set of designs replayed over the daylight part of
// a diurnal day with one of a few idle gaps between inferences.
type dayDesign struct {
	Workload string
	Panel    float64
	Cap      float64
	Accel    *accel.Config
}

var dayDesigns = []dayDesign{
	{Workload: "har", Panel: 12, Cap: 470e-6},
	{Workload: "kws", Panel: 8, Cap: 220e-6},
	{Workload: "cifar10", Panel: 20, Cap: 1e-3},
	{Workload: "mnist-cnn", Panel: 10, Cap: 470e-6},
	{Workload: "fc", Panel: 6, Cap: 100e-6},
	{Workload: "kws", Panel: 4, Cap: 100e-6, Accel: &accel.Config{Arch: accel.TPU, NPE: 64, CacheBytes: 512}},
}

var dayIdles = []float64{1200, 1500, 1800}

type dayOp struct {
	Design int
	Idle   float64
}

func (o dayOp) key() string {
	d := dayDesigns[o.Design]
	hw := "msp430"
	if d.Accel != nil {
		hw = fmt.Sprintf("%s-%d-%g", d.Accel.Arch, d.Accel.NPE, float64(d.Accel.CacheBytes))
	}
	return fmt.Sprintf("%s|%s|%g|%g|%g", d.Workload, hw, d.Panel, d.Cap, o.Idle)
}

// dayStream cycles through every design × idle gap in a seeded order.
type dayStream struct{ order []int }

func newDayStream(seed int64) *dayStream {
	rng := rand.New(rand.NewSource(seed))
	return &dayStream{order: rng.Perm(len(dayDesigns) * len(dayIdles))}
}

func (s *dayStream) at(i int) dayOp {
	c := s.order[i%len(s.order)]
	return dayOp{Design: c / len(dayIdles), Idle: dayIdles[c%len(dayIdles)]}
}
