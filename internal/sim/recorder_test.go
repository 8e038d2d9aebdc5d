package sim

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chrysalis/internal/energy"
	"chrysalis/internal/solar"
	"chrysalis/internal/units"
)

// TestRecorderLedgerConservation runs a choppy-power scenario (many
// power cycles) and checks that every per-cycle ledger balances: the
// capacitor-side flows must account for the stored-energy change
// exactly, and the transducer-side identity must hold.
func TestRecorderLedgerConservation(t *testing.T) {
	cfg := harSetup(t, 8, 100e-6, solar.Dark())
	rec := NewRecorder(0)
	cfg.Record = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("scenario should complete")
	}
	cycles := rec.Cycles()
	if len(cycles) < 2 {
		t.Fatalf("choppy scenario should produce several cycles, got %d", len(cycles))
	}
	for _, c := range cycles {
		flow := math.Abs(c.ChargedJ) + math.Abs(c.DeliveredJ) + math.Abs(c.LeakedJ) + math.Abs(c.DrainedJ)
		tol := 1e-9*flow + 1e-12
		bal := c.ChargedJ - c.DeliveredJ - c.LeakedJ - c.DrainedJ - (c.EndStoredJ - c.StartStoredJ)
		if math.Abs(bal) > tol {
			t.Errorf("cycle %d: capacitor balance off by %g J (tol %g)", c.Index, bal, tol)
		}
		harvTol := 1e-9*math.Abs(c.HarvestedJ) + 1e-12
		hbal := c.HarvestedJ - c.ChargedJ - c.ConversionLossJ - c.SpilledJ
		if math.Abs(hbal) > harvTol {
			t.Errorf("cycle %d: harvest identity off by %g J (tol %g)", c.Index, hbal, harvTol)
		}
		if c.EndS < c.StartS {
			t.Errorf("cycle %d: end %g before start %g", c.Index, c.EndS, c.StartS)
		}
	}
	// Segment boundaries must chain: one cycle's end state is the next
	// cycle's start state.
	for i := 1; i < len(cycles); i++ {
		if cycles[i].StartStoredJ != cycles[i-1].EndStoredJ {
			t.Errorf("cycle %d starts at %g J but cycle %d ended at %g J",
				cycles[i].Index, cycles[i].StartStoredJ, cycles[i-1].Index, cycles[i-1].EndStoredJ)
		}
	}
	if v, dropped := rec.Violations(); len(v) > 0 || dropped > 0 {
		t.Errorf("unexpected event-stream violations: %v (+%d dropped)", v, dropped)
	}
	// The ledger totals must agree with the simulator's own breakdown.
	var harv float64
	for _, c := range cycles {
		harv += c.HarvestedJ
	}
	if diff := harv - float64(res.Breakdown.Harvested); math.Abs(diff) > 1e-9*harv+1e-12 {
		t.Errorf("ledger harvest sum %g J vs breakdown %g J", harv, float64(res.Breakdown.Harvested))
	}
}

// TestRecorderSeriesContinuity attaches one recorder to a whole series
// and checks that the waveform is continuous across inference and idle
// boundaries: timestamps strictly increase, the cumulative harvest
// channel never decreases, and idle gaps are observed (conservation
// would not survive unrecorded stretches).
func TestRecorderSeriesContinuity(t *testing.T) {
	cfg := harSetup(t, 8, 100e-6, solar.Bright())
	rec := NewRecorder(2048)
	cfg.Record = rec
	sr, err := RunSeries(cfg, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != 3 {
		t.Fatalf("expected 3 completions, got %d", sr.Completed)
	}
	w := rec.Waveform()
	if w.EndS < float64(sr.TotalTime)*0.999 {
		t.Errorf("waveform ends at %g s but series ran to %g s — idle gaps unrecorded?", w.EndS, float64(sr.TotalTime))
	}
	ch := w.Channel("e_harvest")
	if ch == nil || len(ch.Points) == 0 {
		t.Fatal("missing e_harvest channel")
	}
	prevT := math.Inf(-1)
	prevLast := 0.0
	for i, p := range ch.Points {
		if p.T <= prevT {
			t.Fatalf("point %d: time %g not after %g", i, p.T, prevT)
		}
		prevT = p.T
		if p.Last+1e-15 < prevLast {
			t.Fatalf("point %d: cumulative harvest fell from %g to %g", i, prevLast, p.Last)
		}
		prevLast = p.Last
	}
	// The recorder's cumulative harvest must match the series total
	// even though each inference resets its own breakdown.
	last := ch.Points[len(ch.Points)-1].Last
	want := float64(sr.Energy.Harvested)
	// Idle-gap harvest is recorded but not part of the per-inference
	// breakdowns, so the recorder's total is >= the series sum.
	if last < want*(1-1e-9) {
		t.Errorf("recorder cumulative harvest %g J < series breakdown %g J", last, want)
	}
	if v, dropped := rec.Violations(); len(v) > 0 || dropped > 0 {
		t.Errorf("unexpected violations: %v (+%d dropped)", v, dropped)
	}
}

// TestDownsamplerMinMaxPreserved drives the recorder directly with a
// synthetic waveform containing isolated spikes and verifies that
// (a) the point budget is respected, and (b) every raw sample is
// covered by a bin whose [min, max] contains it — the property plain
// decimation lacks.
func TestDownsamplerMinMaxPreserved(t *testing.T) {
	es, err := energy.NewSolar(energy.Spec{PanelArea: 8, Cap: 100e-6}, solar.Bright())
	if err != nil {
		t.Fatal(err)
	}
	const budget = 64
	rec := NewRecorder(budget)
	rec.begin(es, 0, PolicyEveryTile)

	type sample struct{ t, v float64 }
	var raw []sample
	const n = 50_000
	dt := units.Seconds(1e-3)
	tm := units.Seconds(0)
	var rep energy.StepReport
	var bd Breakdown
	for i := 0; i < n; i++ {
		tm += dt
		v := 2.0 + math.Sin(float64(i)/500)
		if i%977 == 0 {
			v = 4.9 // isolated spike that decimation would drop
		}
		if i%1913 == 0 {
			v = 0.05 // isolated dip
		}
		es.Cap.SetVoltage(units.Voltage(v))
		rec.step(tm, dt, &rep, &bd)
		raw = append(raw, sample{t: float64(tm), v: float64(es.Cap.Voltage())})
	}
	rec.flush()
	if got := rec.Points(); got > budget {
		t.Fatalf("bin count %d exceeds budget %d", got, budget)
	}
	if rec.RawSamples() != n {
		t.Fatalf("raw samples %d, want %d", rec.RawSamples(), n)
	}
	w := rec.Waveform()
	ch := w.Channel("v_cap")
	if ch == nil {
		t.Fatal("missing v_cap channel")
	}
	// Bin lookup by time: points carry bin start times in order.
	find := func(t0 float64) WavePoint {
		lo := 0
		for i := range ch.Points {
			if ch.Points[i].T <= t0 {
				lo = i
			} else {
				break
			}
		}
		return ch.Points[lo]
	}
	var gmin, gmax = math.Inf(1), math.Inf(-1)
	for _, s := range raw {
		p := find(s.t)
		if s.v < p.Min-1e-12 || s.v > p.Max+1e-12 {
			t.Fatalf("sample (%g s, %g V) outside its bin range [%g, %g]", s.t, s.v, p.Min, p.Max)
		}
		gmin = math.Min(gmin, s.v)
		gmax = math.Max(gmax, s.v)
	}
	var bmin, bmax = math.Inf(1), math.Inf(-1)
	for _, p := range ch.Points {
		bmin = math.Min(bmin, p.Min)
		bmax = math.Max(bmax, p.Max)
	}
	if bmin != gmin || bmax != gmax {
		t.Errorf("global min/max [%g, %g] not preserved, got [%g, %g]", gmin, gmax, bmin, bmax)
	}
}

// TestRecorderBoundedMemory24h simulates more than 24 hours and checks
// the recorder stays within its point budget — the property that
// replaced the old silent 100k-sample truncation.
func TestRecorderBoundedMemory24h(t *testing.T) {
	cfg := harSetup(t, 8, 100e-6, solar.Bright())
	rec := NewRecorder(512)
	cfg.Record = rec
	// 20 inferences spaced by 90-minute idle gaps: > 27 h simulated.
	sr, err := RunSeries(cfg, 20, 5400)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != 20 {
		t.Fatalf("expected 20 completions, got %d", sr.Completed)
	}
	if float64(sr.TotalTime) < 24*3600 {
		t.Fatalf("series only covered %g s, want >= 24h", float64(sr.TotalTime))
	}
	if got := rec.Points(); got > 512 {
		t.Errorf("bin count %d exceeds budget 512 after %g s", got, float64(sr.TotalTime))
	}
	w := rec.Waveform()
	if w.EndS-w.StartS < 24*3600 {
		t.Errorf("waveform span %g s, want >= 24h", w.EndS-w.StartS)
	}
	for _, ch := range w.Channels {
		if len(ch.Points) != rec.Points() {
			t.Errorf("channel %s has %d points, recorder reports %d", ch.Name, len(ch.Points), rec.Points())
		}
	}
}

// countingHarvester wraps a harvester and counts Power calls: the
// simulator samples the harvester exactly once per literal step, so the
// count is the number of steps executed so far.
type countingHarvester struct {
	energy.Harvester
	calls *atomic.Int64
}

func (c countingHarvester) Power(t units.Seconds) units.Power {
	c.calls.Add(1)
	return c.Harvester.Power(t)
}

// diurnalSeriesSetup is a recorded morning series under solar.Diurnal
// (literal stepping throughout) with a step counter on the harvester.
func diurnalSeriesSetup(t *testing.T, points int) (Config, *Recorder, *atomic.Int64) {
	t.Helper()
	day, err := solar.NewDiurnal(solar.KehBright, 0, 12*3600)
	if err != nil {
		t.Fatal(err)
	}
	cfg := harSetup(t, 8, 100e-6, day)
	steps := new(atomic.Int64)
	cfg.Energy.Harvester = countingHarvester{Harvester: cfg.Energy.Harvester, calls: steps}
	rec := NewRecorder(points)
	cfg.Record = rec
	return cfg, rec, steps
}

// TestRecorderConcurrentSnapshots reads waveforms and ledgers from
// other goroutines while a diurnal series is running — the
// live waveform-endpoint access pattern — and relies on -race to catch
// unsynchronized access. It also pins the staging contract: a live
// reader is never more than one stage of steps behind the simulator,
// and once RunSeries returns every executed step has been folded.
func TestRecorderConcurrentSnapshots(t *testing.T) {
	cfg, rec, steps := diurnalSeriesSetup(t, 256)

	done := make(chan struct{})
	var wg sync.WaitGroup
	var lagErr atomic.Value
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Steps are counted when they start, so a step in
				// flight plus a full stage is the most a reader can
				// miss.
				executed := steps.Load()
				if raw := rec.RawSamples(); raw < executed-stageSize {
					lagErr.Store(fmt.Sprintf("snapshot folded %d samples after %d steps (stage %d)", raw, executed, stageSize))
				}
				w := rec.Waveform()
				_ = w.Channel("v_cap")
				_ = rec.Cycles()
				_, _ = rec.Violations()
			}
		}()
	}
	sr, err := RunSeries(cfg, 3, 600)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Completed != 3 {
		t.Fatalf("diurnal series completed %d of 3", sr.Completed)
	}
	if msg := lagErr.Load(); msg != nil {
		t.Error(msg)
	}
	if got, want := rec.RawSamples(), steps.Load(); got != want {
		t.Errorf("after RunSeries: %d raw samples, %d steps executed", got, want)
	}
	if w := rec.Waveform(); w.EndS != float64(sr.TotalTime) {
		t.Errorf("waveform ends at %g s, series ended at %g s", w.EndS, float64(sr.TotalTime))
	}
}

// TestRecorderPanickingTraceReleasesLock runs a series whose Trace
// callback panics mid-run: the recorder must not be left locked, so a
// reader's snapshot still returns promptly.
func TestRecorderPanickingTraceReleasesLock(t *testing.T) {
	cfg, rec, _ := diurnalSeriesSetup(t, 256)
	checkpoints := 0
	cfg.Trace = func(e Event) {
		if e.Kind == EvCheckpoint {
			if checkpoints++; checkpoints == 5 {
				panic("trace consumer failed")
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the Trace panic should propagate out of RunSeries")
			}
		}()
		_, _ = RunSeries(cfg, 3, 600)
	}()
	got := make(chan Waveform, 1)
	go func() { got <- rec.Waveform() }()
	select {
	case w := <-got:
		if w.RawSamples == 0 {
			t.Error("no samples folded before the panic")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Waveform blocked after a panicking run: recorder lock still held")
	}
}

// TestWalkLastMatchesWaveform checks the copy-free channel walk the
// audit uses against the full snapshot.
func TestWalkLastMatchesWaveform(t *testing.T) {
	cfg, rec, _ := diurnalSeriesSetup(t, 128)
	if _, err := RunSeries(cfg, 2, 600); err != nil {
		t.Fatal(err)
	}
	w := rec.Waveform()
	for _, name := range []string{"e_harvest", "e_ckpt", "cycle"} {
		pts := w.Channel(name).Points
		i := 0
		if !rec.WalkLast(name, func(t0, last float64) bool {
			if i >= len(pts) || pts[i].T != t0 || pts[i].Last != last {
				t.Errorf("%s bin %d: walk (%g, %g) disagrees with snapshot", name, i, t0, last)
				return false
			}
			i++
			return true
		}) {
			t.Fatalf("channel %s not found", name)
		}
		if i != len(pts) {
			t.Errorf("%s: walked %d bins, snapshot has %d", name, i, len(pts))
		}
	}
	if rec.WalkLast("nope", func(float64, float64) bool { return true }) {
		t.Error("unknown channel reported as found")
	}
	var nilRec *Recorder
	if nilRec.WalkLast("e_harvest", func(float64, float64) bool { return true }) {
		t.Error("nil recorder reported a channel")
	}
}

// TestRecordedStepZeroAlloc pins the recorder's steady state: once the
// bins have reached their point budget (and compaction has sized the
// slice), a recorded literal step — the series idle loop's subsystem
// step plus recorder step — allocates nothing.
func TestRecordedStepZeroAlloc(t *testing.T) {
	day, err := solar.NewDiurnal(solar.KehBright, 0, 12*3600)
	if err != nil {
		t.Fatal(err)
	}
	cfg := harSetup(t, 8, 100e-6, day)
	es := cfg.Energy
	const budget = 64
	rec := NewRecorder(budget)
	rec.begin(es, 0, PolicyEveryTile)
	var (
		rep energy.StepReport
		bd  Breakdown
		tm  units.Seconds
	)
	const dt = units.Seconds(1e-3)
	recorded := func() {
		es.StepInto(&rep, tm, 0, dt)
		tm += dt
		rec.step(tm, dt, &rep, &bd)
	}
	for rec.RawSamples() < 4*budget {
		recorded()
	}
	if allocs := testing.AllocsPerRun(10*stageSize, recorded); allocs != 0 {
		t.Fatalf("recorded step allocates %v times per step at the point budget", allocs)
	}
}

// BenchmarkRecordedDiurnalStep times one literal co-simulation step
// with a flight recorder attached under a diurnal day — the per-step
// cost of day-scale replays, which the event simulator cannot jump
// because the harvest varies with time. Run with -benchmem. The
// recorder's own cost per step is its ns/step minus that of
// BenchmarkUnrecordedDiurnalStep; both are noisy, so compare them in
// interleaved runs (-count with both selected).
func BenchmarkRecordedDiurnalStep(b *testing.B) {
	benchDiurnalStep(b, NewRecorder(0))
}

// BenchmarkUnrecordedDiurnalStep is BenchmarkRecordedDiurnalStep with
// no recorder attached.
func BenchmarkUnrecordedDiurnalStep(b *testing.B) {
	benchDiurnalStep(b, nil)
}

func benchDiurnalStep(b *testing.B, rec *Recorder) {
	day, err := solar.NewDiurnal(solar.KehBright, 0, 12*3600)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harSetup(b, 8, 100e-6, day)
	cfg.Record = rec
	cfg.Energy.Reset()
	cfg.Energy.Cap.SetVoltage(cfg.Energy.Spec().PMIC.UOff)
	s := newStepper(cfg, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
		if s.res.Completed || s.tm >= s.maxT {
			_, end := s.finish()
			s = newStepper(cfg, end)
		}
	}
	s.finish()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/step")
}

// TestWaveformCSV checks the CSV export shape: header plus one row per
// bin, with min/max/mean/last columns for every channel.
func TestWaveformCSV(t *testing.T) {
	cfg := harSetup(t, 8, 100e-6, solar.Bright())
	rec := NewRecorder(128)
	cfg.Record = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	w := rec.Waveform()
	if err := w.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1+len(w.Channels[0].Points) {
		t.Fatalf("CSV has %d lines, want header + %d bins", len(lines), len(w.Channels[0].Points))
	}
	wantCols := 2 + 4*len(w.Channels)
	for i, ln := range lines {
		if got := strings.Count(ln, ",") + 1; got != wantCols {
			t.Fatalf("line %d has %d columns, want %d", i, got, wantCols)
		}
	}
	if !strings.HasPrefix(lines[0], "t_s,samples,v_cap_min,") {
		t.Errorf("unexpected header: %s", lines[0])
	}
}
