package experiments

import (
	"fmt"
	"io"

	"chrysalis/internal/accel"
	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/energy"
	"chrysalis/internal/explore"
	"chrysalis/internal/msp430"
	"chrysalis/internal/report"
	"chrysalis/internal/sim"
	"chrysalis/internal/solar"
	"chrysalis/internal/units"
)

// Table1 reproduces the qualitative platform survey. The rows are the
// published investigation; the CHRYSALIS row is what this repository
// implements.
func Table1(w io.Writer, o Options) error {
	t := report.NewTable("Table I — Investigation into existing AuT platforms",
		"AuT design methodology", "Energy design", "Inference design", "Scalability", "Sustainability")
	t.AddRow("WISPCam, Botoks", "yes", "no", "no", "no")
	t.AddRow("SONIC, RAD", "no", "yes", "no", "no")
	t.AddRow("HAWAII, Stateful", "no", "yes", "no", "no")
	t.AddRow("Protean", "yes", "no", "no", "yes")
	t.AddRow("CHRYSALIS (this repo)", "yes", "yes", "yes", "yes")
	return t.Render(w)
}

// modelWorkloadOn runs a workload through the cost model on given HW
// with minimal tiling (non-intermittent execution).
func modelWorkloadOn(wl dnn.Workload, hw dataflow.HW, convOnly bool) (units.Seconds, units.Energy, int64, error) {
	var (
		tt   units.Seconds
		te   units.Energy
		macs int64
	)
	for _, l := range wl.Layers {
		if convOnly && l.Kind != dnn.Conv2D {
			continue
		}
		_, c, err := dataflow.MinTileMapping(l, wl.ElemBytes, dataflow.OS, hw)
		if err != nil {
			return 0, 0, 0, err
		}
		tt += c.TDf
		te += c.EDf
		macs += c.MACs
	}
	te += dataflow.StaticEnergy(hw, tt)
	return tt, te, macs, nil
}

// Fig2a regenerates the motivational comparison: the MSP430/HAWAII
// platform running MNIST-CNN against the Eyeriss V1 chip running
// AlexNet (conv layers, matching the published MOPs), model vs
// published.
func Fig2a(w io.Writer, o Options) error {
	t := report.NewTable("Figure 2(a) — intermittent platform vs edge accelerator (non-intermittent)",
		"Inference HW", "Test model", "Metric", "Model", "Published")

	// MSP430 row.
	mspHW := msp430.Config{}.HW()
	mt, me, mmacs, err := modelWorkloadOn(dnn.MNISTCNN(), mspHW, false)
	if err != nil {
		return err
	}
	mpub := msp430.PublishedMNIST()
	t.AddRow("MSP430 (HAWAII)", "MNIST-CNN", "Time/input", mt.String(), mpub.TimePerInput.String())
	t.AddRow("", "", "MOPs", fmt.Sprintf("%.3f", float64(2*mmacs)/1e6), fmt.Sprintf("%.3f", mpub.MOPs))
	t.AddRow("", "", "Power", units.DivET(me, mt).String(), mpub.Power.String())
	t.AddRow("", "", "Energy", me.String(), mpub.Energy.String())

	// Eyeriss row.
	eCfg := accel.EyerissV1()
	eHW, err := eCfg.HW(dataflow.OS)
	if err != nil {
		return err
	}
	et, ee, emacs, err := modelWorkloadOn(dnn.AlexNet(), eHW, true)
	if err != nil {
		return err
	}
	epub := accel.PublishedEyerissAlexNet()
	t.AddRow("Eyeriss V1", "AlexNet (convs)", "Time/input", et.String(), epub.TimePerInput.String())
	t.AddRow("", "", "MOPs", fmt.Sprintf("%.0f", float64(2*emacs)/1e6), fmt.Sprintf("%.0f", epub.MOPs))
	t.AddRow("", "", "Power", units.DivET(ee, et).String(), epub.Power.String())
	t.AddRow("", "", "Energy", ee.String(), epub.Energy.String())

	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nTakeaway: the accelerator is ~%.0fx faster per inference but draws ~%.0fx more power\n"+
		"than the MCU — too much for naive energy harvesting (the AuT gap).\n",
		float64(mt)/float64(et)*float64(2663)/float64(1.608)/1000, // ops-normalized speed gap
		float64(epub.Power)/float64(mpub.Power))
	return nil
}

// Fig2b regenerates the capacitor-sensitivity study: HAWAII-style
// MSP430 inference under three applications across capacitor sizes,
// with unavailability when leakage exceeds harvest.
func Fig2b(w io.Writer, o Options) error {
	o = o.withDefaults()
	t := report.NewTable("Figure 2(b) — throughput vs capacitor size (MSP430, 2cm² panel, dark ambient)",
		"App", "Capacitor", "E2E latency", "Throughput (inf/h)")
	apps := []dnn.Workload{dnn.CNNb(), dnn.CNNs(), dnn.FCNet()}
	caps := []units.Capacitance{10e-6, 100e-6, 1e-3, 10e-3}
	env := solar.Dark()

	for _, app := range apps {
		sc := explore.Scenario{
			Workload:  app,
			Platform:  explore.MSP,
			Objective: explore.Lat,
			Envs:      []solar.Environment{env},
		}
		for _, c := range caps {
			cand := explore.Candidate{PanelArea: 2, Cap: c}
			ev, err := explore.EvaluateCandidate(sc, cand)
			if err != nil || !ev.Feasible {
				t.AddRow(app.Name, c.String(), "unavailable (leakage)", "0")
				continue
			}
			lat := ev.PerEnv[0].Latency
			t.AddRow(app.Name, c.String(), fmtLat(lat), fmt.Sprintf("%.1f", 3600/float64(lat)))
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nTakeaway: oversizing the capacitor trades throughput for leakage until the")
	fmt.Fprintln(w, "system becomes unavailable — capacitor size must be searched, not assumed.")
	return nil
}

// Table3 prints the supported component inventory.
func Table3(w io.Writer, o Options) error {
	t := report.NewTable("Table III — supported AuT component setups",
		"Subsystem", "Component", "Realization", "Base model")
	for _, c := range coreComponents() {
		t.AddRow(c[0], c[1], c[2], c[3])
	}
	return t.Render(w)
}

// Table4 prints the existing-AuT design space and application stats.
func Table4(w io.Writer, o Options) error {
	ds := report.NewTable("Table IV — design space (existing AuT)",
		"Parameter", "Type", "Potential values")
	ds.AddRow("Solar panel size", "float", "1cm² to 30cm²")
	ds.AddRow("Capacitor size", "float", "1uF to 10mF")
	ds.AddRow("Tiling size", "list(int)", "divisors of each layer's partition dimension")
	if err := ds.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return workloadTable(w, "Table IV — applications", dnn.ExistingAuT(), 1e3, "kFLOPs")
}

// Table5 prints the future-AuT design space and application stats.
func Table5(w io.Writer, o Options) error {
	ds := report.NewTable("Table V — design space (future AuT with accelerators)",
		"Parameter", "Type", "Potential values")
	ds.AddRow("Solar panel size", "float", "1cm² to 30cm²")
	ds.AddRow("Capacitor size", "float", "1uF to 10mF")
	ds.AddRow("Architecture", "union", "TPU, Eyeriss")
	ds.AddRow("PE number", "int", "1 to 168")
	ds.AddRow("PE cache size", "int", "128 bytes to 2KB")
	if err := ds.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return workloadTable(w, "Table V — applications", dnn.FutureAuT(), 1e9, "GFLOPs")
}

func workloadTable(w io.Writer, title string, wls []dnn.Workload, flopScale float64, flopUnit string) error {
	t := report.NewTable(title, "Application", "Input", "Layers", "Params", flopUnit)
	for _, wl := range wls {
		t.AddRow(wl.Name,
			fmt.Sprintf("(%d,%d,%d)", wl.Input[0], wl.Input[1], wl.Input[2]),
			fmt.Sprintf("%d", wl.WeightLayers()),
			fmt.Sprintf("%.1fk", float64(wl.TotalParams())/1e3),
			fmt.Sprintf("%.1f", float64(wl.TotalMACs())/flopScale))
	}
	return t.Render(w)
}

// simBreakdown runs the step simulator on a candidate under one
// environment and returns the result (shared by Fig. 8/9).
func simBreakdown(sc explore.Scenario, cand explore.Candidate, env solar.Environment) (sim.Result, error) {
	scOne := sc
	scOne.Envs = []solar.Environment{env}
	ev, err := explore.EvaluateCandidate(scOne, cand)
	if err != nil {
		return sim.Result{}, err
	}
	plans := plansOf(ev)
	es, err := energy.NewSolar(energy.Spec{PanelArea: cand.PanelArea, Cap: cand.Cap}, env)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(sim.Config{Energy: es, HW: mspHW(), Plans: plans, Step: 2e-3})
}
