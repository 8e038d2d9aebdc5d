package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"chrysalis/internal/energy"
	"chrysalis/internal/pmic"
	"chrysalis/internal/solar"
	"chrysalis/internal/units"
)

// flatBins is the reference bin store the segmented one must match: one
// slice grown by append, each new bin compacted on budget overflow, with
// the same sample and merge rules.
type flatBins struct {
	maxPoints int
	binDur    float64
	bins      []wavebin
}

func (f *flatBins) sample(t float64, vals *[numChannels]float64) {
	n := len(f.bins)
	if n == 0 || (f.binDur > 0 && t-f.bins[n-1].t0 >= f.binDur) || (f.binDur == 0 && t > f.bins[n-1].t1) {
		b := wavebin{t0: t, t1: t}
		for i := range b.ch {
			b.ch[i] = chanAgg{min: math.Inf(1), max: math.Inf(-1)}
		}
		f.bins = append(f.bins, b)
		if len(f.bins) > f.maxPoints {
			f.compact()
		}
		n = len(f.bins)
	}
	b := &f.bins[n-1]
	b.t1 = t
	b.count++
	for i := range vals {
		b.ch[i].add(vals[i])
	}
}

func (f *flatBins) compact() {
	if f.binDur == 0 {
		span := f.bins[len(f.bins)-1].t1 - f.bins[0].t0
		f.binDur = 2 * span / float64(len(f.bins))
		if f.binDur <= 0 {
			f.binDur = math.SmallestNonzeroFloat64
		}
	} else {
		f.binDur *= 2
	}
	half := len(f.bins) / 2
	for i := 0; i < half; i++ {
		b, nb := f.bins[2*i], f.bins[2*i+1]
		b.t1 = nb.t1
		b.count += nb.count
		for c := range b.ch {
			b.ch[c].merge(nb.ch[c])
		}
		f.bins[i] = b
	}
	if len(f.bins)%2 == 1 {
		f.bins[half] = f.bins[len(f.bins)-1]
		half++
	}
	f.bins = f.bins[:half]
}

// channels renders the reference bins as Waveform channels.
func (f *flatBins) channels() []WaveChannel {
	out := make([]WaveChannel, numChannels)
	for c := range out {
		out[c] = WaveChannel{Name: channelMeta[c].Name, Unit: channelMeta[c].Unit, Points: make([]WavePoint, len(f.bins))}
		for i, b := range f.bins {
			a := b.ch[c]
			out[c].Points[i] = WavePoint{T: b.t0, Min: a.min, Max: a.max, Mean: a.sum / float64(b.count), Last: a.last}
		}
	}
	return out
}

// storeTrial is one randomized recording: a point budget, an initial
// bin width and a stream of steps, power-on events and run boundaries.
type storeTrial struct {
	budget     int // passed to NewRecorder; 0 selects the default
	binSeconds units.Seconds
	samples    int
	seed       int64
}

// run feeds the trial's stream to a recorder under test, to a twin that
// never compacts (its ledgers are the bin-independent reference) and,
// channel by channel, to the flat reference store. It returns all three.
func (tr storeTrial) run(t *testing.T) (rec, twin *Recorder, ref *flatBins) {
	t.Helper()
	es, err := energy.NewSolar(energy.Spec{PanelArea: 8, Cap: 100e-6}, solar.Bright())
	if err != nil {
		t.Fatal(err)
	}
	rec = NewRecorder(tr.budget)
	rec.BinSeconds = tr.binSeconds
	twin = NewRecorder(tr.samples + 1)
	ref = &flatBins{maxPoints: rec.maxPoints, binDur: float64(tr.binSeconds)}
	rng := rand.New(rand.NewSource(tr.seed))
	energyJ := func() units.Energy { return units.Energy(rng.Float64() * 1e-6) }

	var (
		tm         units.Seconds
		rep        energy.StepReport
		bd, base   Breakdown
		lastBD     Breakdown // the breakdown the next begin folds into base
		cumHarvest float64
		cycle      int
	)
	recorders := []*Recorder{rec, twin}
	begin := func() {
		for _, r := range recorders {
			r.begin(es, tm, PolicyEveryTile)
		}
		base.Infer += lastBD.Infer
		base.NVMIO += lastBD.NVMIO
		base.Ckpt += lastBD.Ckpt
		lastBD = Breakdown{}
	}
	powerOn := func() {
		for _, r := range recorders {
			r.event(Event{Kind: EvPowerOn, Time: tm})
		}
		cycle++
	}
	step := func(dt units.Seconds) {
		for _, r := range recorders {
			r.step(tm, dt, &rep, &bd)
		}
		var vals [numChannels]float64
		span := float64(dt)
		vals[ChVCap] = float64(es.Cap.Voltage())
		vals[ChEStored] = float64(es.Cap.Stored())
		if span > 0 {
			vals[ChPHarvest] = float64(rep.Harvested) / span
			vals[ChPLoad] = float64(rep.Delivered) / span
			vals[ChPLeak] = float64(rep.Leaked) / span
		}
		cumHarvest += float64(rep.Harvested)
		vals[ChEHarvest] = cumHarvest
		vals[ChECompute] = float64(base.Infer) + float64(bd.Infer)
		vals[ChENVMIO] = float64(base.NVMIO) + float64(bd.NVMIO)
		vals[ChECkpt] = float64(base.Ckpt) + float64(bd.Ckpt)
		vals[ChCycle] = float64(cycle)
		ref.sample(float64(tm), &vals)
		lastBD = bd
	}

	for i := 0; i < tr.samples; i++ {
		switch {
		case i == 0 || rng.Intn(200) == 0:
			begin()
		case rng.Intn(50) == 0:
			powerOn()
		}
		// One step in ten spans no time: its power channels read 0 and,
		// while bins are one sample wide, it shares the previous bin.
		var dt units.Seconds
		if rng.Intn(10) != 0 {
			dt = units.Seconds(0.5e-3 + rng.Float64()*1e-3)
		}
		tm += dt
		es.Cap.SetVoltage(units.Voltage(0.1 + 4.5*rng.Float64()))
		rep = energy.StepReport{Harvested: energyJ(), ConversionLoss: energyJ()}
		rep.Charged, rep.Delivered, rep.Leaked, rep.Spilled = energyJ(), energyJ(), energyJ(), energyJ()
		rep.LeakVoltage = units.Voltage(4 * rng.Float64())
		if rng.Intn(2) == 0 {
			rep.State = pmic.On
		}
		bd = Breakdown{Infer: energyJ(), NVMIO: energyJ(), Ckpt: energyJ()}
		step(dt)
	}
	for _, r := range recorders {
		r.release()
	}
	return rec, twin, ref
}

// TestRecorderStoreMatchesFlat is the segmented bin store's property
// test: over random point budgets (1–64 and the default), sample counts
// on and around segment and compaction boundaries, and initial bin
// widths of 0 and > 0, a recorder's Waveform must equal, bit for bit,
// the flat reference store's bins fed the same channel values, and its
// ledgers must equal those of a twin whose bins never compact.
func TestRecorderStoreMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var trials []storeTrial
	add := func(budget, samples int) {
		for _, width := range []units.Seconds{0, units.Seconds(1e-3 * (0.5 + 4*rng.Float64()))} {
			trials = append(trials, storeTrial{budget: budget, binSeconds: width, samples: samples, seed: rng.Int63()})
		}
	}
	budgets := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for i := 0; i < 8; i++ {
		budgets = append(budgets, 10+rng.Intn(55))
	}
	for _, budget := range budgets {
		for _, n := range []int{1, 7, 8, 9, 16, 17, 33, budget, budget + 1, budget + 2, 2*budget + 1, 1 + rng.Intn(40*budget)} {
			add(budget, n)
		}
	}
	for _, n := range []int{DefaultWavePoints, DefaultWavePoints + 1, DefaultWavePoints + 2, 3*DefaultWavePoints + 5} {
		add(0, n)
	}
	for _, tr := range trials {
		rec, twin, ref := tr.run(t)
		name := fmt.Sprintf("budget %d, bin width %g s, %d samples", rec.maxPoints, float64(tr.binSeconds), tr.samples)
		w := rec.Waveform()
		if got, want := fmt.Sprint(w.Channels), fmt.Sprint(ref.channels()); got != want {
			t.Fatalf("%s: waveform channels differ from the flat store", name)
		}
		var startS, endS float64
		counts := make([]int64, len(ref.bins))
		for i, b := range ref.bins {
			counts[i] = b.count
		}
		if len(ref.bins) > 0 {
			startS, endS = ref.bins[0].t0, ref.bins[len(ref.bins)-1].t1
		}
		if math.Float64bits(w.BinSeconds) != math.Float64bits(ref.binDur) || w.StartS != startS || w.EndS != endS ||
			w.RawSamples != int64(tr.samples) || fmt.Sprint(w.binCounts) != fmt.Sprint(counts) {
			t.Fatalf("%s: waveform header (bin %g s, [%g, %g] s, %d raw, counts %v), flat store (bin %g s, [%g, %g] s, %d raw, counts %v)",
				name, w.BinSeconds, w.StartS, w.EndS, w.RawSamples, w.binCounts, ref.binDur, startS, endS, tr.samples, counts)
		}
		if rec.Points() != len(ref.bins) || rec.Points() > rec.maxPoints {
			t.Fatalf("%s: %d points, flat store %d, budget %d", name, rec.Points(), len(ref.bins), rec.maxPoints)
		}
		if got, want := fmt.Sprint(rec.Cycles()), fmt.Sprint(twin.Cycles()); got != want || fmt.Sprint(w.Cycles) != want {
			t.Fatalf("%s: ledgers depend on the bin store", name)
		}
	}
}

// binStoreCap returns the total capacity of a recorder's segments.
func binStoreCap(r *Recorder) int {
	n := 0
	for _, seg := range r.segs {
		n += len(seg)
	}
	return n
}

// TestRecorderBinAllocs is the bin store's exact allocation gate: a
// recorder filled past its point budget allocates itself, its segment
// list and its segments, nothing else, and its segments hold exactly
// budget+1 bins, so growth never copies a bin. It also pins the
// retained-memory rule for recorders that stay below the budget (a
// finished verify job keeps its recorder): room for at most twice the
// bins in use, or segment 0.
func TestRecorderBinAllocs(t *testing.T) {
	es, err := energy.NewSolar(energy.Spec{PanelArea: 8, Cap: 100e-6}, solar.Bright())
	if err != nil {
		t.Fatal(err)
	}
	var (
		rep energy.StepReport
		bd  Breakdown
	)
	const dt = units.Seconds(1e-3)
	// The recorders share one stage the test owns, so no run depends on
	// what sync.Pool keeps.
	stage := new([stageSize]stagedStep)
	fill := func(budget, steps int) *Recorder {
		r := NewRecorder(budget)
		r.stage = stage
		r.begin(es, 0, PolicyEveryTile)
		for i := 1; i <= steps; i++ {
			r.step(units.Seconds(i)*dt, dt, &rep, &bd)
		}
		r.flush()
		return r
	}
	binSize := int(unsafe.Sizeof(wavebin{}))
	for _, budget := range []int{1, 7, 8, 9, 64, 100, DefaultWavePoints} {
		steps := 3*budget + 5
		segs := segmentCount(budget + 1)
		if n := testing.AllocsPerRun(5, func() { fill(budget, steps) }); n != float64(2+segs) {
			t.Errorf("budget %d: filling a recorder allocates %v times, want %d (recorder, segment list, %d segments)",
				budget, n, 2+segs, segs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := fill(budget, steps)
		runtime.ReadMemStats(&after)
		if c := binStoreCap(r); c != budget+1 || len(r.segs) != segs {
			t.Errorf("budget %d: %d segments hold %d bins, want %d holding %d", budget, len(r.segs), c, segs, budget+1)
		}
		// Size classes round each segment up by at most 1/8.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64((budget+1)*binSize*9/8+4096); got > limit {
			t.Errorf("budget %d: filling a recorder allocated %d B, want at most %d B for %d bins of %d B",
				budget, got, limit, budget+1, binSize)
		}
	}
	for steps := 1; steps <= 600; steps++ {
		r := fill(0, steps)
		if c := binStoreCap(r); c > 2*r.Points() && c > seg0Bins {
			t.Fatalf("%d bins in use retain room for %d", r.Points(), c)
		}
	}
}
