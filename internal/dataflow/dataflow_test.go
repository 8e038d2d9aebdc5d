package dataflow

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"chrysalis/internal/dnn"
	"chrysalis/internal/units"
)

// testHW is a small accelerator-like configuration for cost-model tests.
func testHW() HW {
	return HW{
		NPE:              16,
		CacheBytes:       512,
		VMBytes:          64 * units.KB,
		EMAC:             1e-12,
		EVMPerByte:       0.5e-12,
		ENVMReadPerByte:  10e-12,
		ENVMWritePerByte: 20e-12,
		TMAC:             5e-9,
		PMemPerByte:      1e-9,
		PIdle:            50e-6,
	}
}

func convLayer(t *testing.T) dnn.Layer {
	t.Helper()
	l, err := dnn.NewConv2D("c", 16, 16, 16, 32, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestHWValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*HW)
	}{
		{"NPE=0", func(h *HW) { h.NPE = 0 }},
		{"cache=0", func(h *HW) { h.CacheBytes = 0 }},
		{"vm=0", func(h *HW) { h.VMBytes = 0 }},
		{"emac=0", func(h *HW) { h.EMAC = 0 }},
		{"tmac=0", func(h *HW) { h.TMAC = 0 }},
		{"negVM", func(h *HW) { h.EVMPerByte = -1 }},
		{"negRead", func(h *HW) { h.ENVMReadPerByte = -1 }},
		{"negStatic", func(h *HW) { h.PMemPerByte = -1 }},
		{"negIdle", func(h *HW) { h.PIdle = -1 }},
	}
	for _, tc := range cases {
		hw := testHW()
		tc.mut(&hw)
		if err := hw.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if err := testHW().Validate(); err != nil {
		t.Fatalf("valid HW rejected: %v", err)
	}
}

func TestEvaluateInputValidation(t *testing.T) {
	l := convLayer(t)
	if _, err := Evaluate(l, 0, Mapping{NTile: 1}, testHW()); err == nil {
		t.Error("zero elem bytes should fail")
	}
	if _, err := Evaluate(l, 1, Mapping{NTile: 0}, testHW()); err == nil {
		t.Error("zero NTile should fail")
	}
	if _, err := Evaluate(l, 1, Mapping{NTile: 1, Dataflow: Dataflow(9)}, testHW()); err == nil {
		t.Error("unknown dataflow should fail")
	}
	if _, err := Evaluate(l, 1, Mapping{NTile: 1, Partition: Partition(9)}, testHW()); err == nil {
		t.Error("unknown partition should fail")
	}
	bad := testHW()
	bad.NPE = -1
	if _, err := Evaluate(l, 1, Mapping{NTile: 1}, bad); err == nil {
		t.Error("invalid HW should fail")
	}
}

// TestEvaluableMatchesEvaluate checks Evaluable reports exactly the
// inputs Evaluate accepts at a positive tile count.
func TestEvaluableMatchesEvaluate(t *testing.T) {
	l := convLayer(t)
	bad := testHW()
	bad.NPE = -1
	for _, hw := range []HW{testHW(), bad} {
		for _, eb := range []int{-1, 0, 1, 2} {
			for _, df := range []Dataflow{WS, OS, IS, Dataflow(9)} {
				for _, part := range []Partition{ByChannel, BySpatial, Partition(9)} {
					_, err := Evaluate(l, eb, Mapping{Dataflow: df, Partition: part, NTile: 4}, hw)
					if got := Evaluable(eb, df, part, &hw); got != (err == nil) {
						t.Errorf("Evaluable(%d, %v, %v, NPE=%d) = %v, Evaluate err %v", eb, df, part, hw.NPE, got, err)
					}
				}
			}
		}
	}
}

// TestEvaluateIntoOverwritesEveryField checks EvaluateInto, which
// assigns its result field by field, leaves nothing of a reused Cost
// behind: over a Cost with every field set, it must produce exactly
// Evaluate's result.
func TestEvaluateIntoOverwritesEveryField(t *testing.T) {
	l := convLayer(t)
	hw := testHW()
	m := Mapping{Dataflow: WS, Partition: BySpatial, NTile: 4}
	want, err := Evaluate(l, 2, m, hw)
	if err != nil {
		t.Fatal(err)
	}
	var c Cost
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("stale")
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(7)
		case reflect.Struct:
			f.Set(reflect.ValueOf(Mapping{Dataflow: IS, Partition: ByChannel, NTile: 7}))
		default:
			t.Fatalf("Cost field %s has unhandled kind %v", v.Type().Field(i).Name, f.Kind())
		}
	}
	if !EvaluateInto(&l, 2, m, &hw, &c) {
		t.Fatal("EvaluateInto reported the feasible mapping infeasible")
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("EvaluateInto left stale fields:\n%+v\nwant\n%+v", c, want)
	}
}

func TestNVMTrafficConservation(t *testing.T) {
	// ByChannel: total weight reads across tiles == weight bytes, input
	// read N times, outputs written exactly once.
	l := convLayer(t)
	hw := testHW()
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		c, err := Evaluate(l, 1, Mapping{Dataflow: OS, Partition: ByChannel, NTile: n}, hw)
		if err != nil {
			t.Fatalf("NTile=%d: %v", n, err)
		}
		wantReads := float64(l.InputElems())*float64(n) + float64(l.WeightElems())
		if !units.ApproxEqual(float64(c.ReadBytes), wantReads, 1e-9) {
			t.Errorf("NTile=%d: reads %v, want %v", n, c.ReadBytes, wantReads)
		}
		if !units.ApproxEqual(float64(c.WriteBytes), float64(l.OutputElems()), 1e-9) {
			t.Errorf("NTile=%d: writes %v, want %v", n, c.WriteBytes, float64(l.OutputElems()))
		}
	}
}

func TestMoreTilesMoreEnergy(t *testing.T) {
	// The paper's Eq. 5 insight: increasing N_tile increases total
	// energy (more redundant NVM traffic), for by-channel conv tiling.
	l := convLayer(t)
	hw := testHW()
	var prev units.Energy
	for i, n := range []int{1, 2, 4, 8, 16, 32} {
		c, err := Evaluate(l, 1, Mapping{Dataflow: OS, Partition: ByChannel, NTile: n}, hw)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && c.EDf < prev {
			t.Errorf("NTile=%d: energy %v decreased below %v", n, c.EDf, prev)
		}
		prev = c.EDf
	}
}

func TestNTileClampedToExtent(t *testing.T) {
	l := convLayer(t) // OutC = 32
	c, err := Evaluate(l, 1, Mapping{Dataflow: OS, Partition: ByChannel, NTile: 1000}, testHW())
	if err != nil {
		t.Fatal(err)
	}
	if c.NTileEffective != 32 {
		t.Fatalf("NTileEffective = %d, want 32", c.NTileEffective)
	}
}

func TestOSMinimizesVMForConv(t *testing.T) {
	// With high output-reuse (conv), OS should move less VM traffic
	// than WS/IS which stream partial sums.
	l := convLayer(t)
	hw := testHW()
	get := func(d Dataflow) units.Bytes {
		c, err := Evaluate(l, 1, Mapping{Dataflow: d, Partition: ByChannel, NTile: 4}, hw)
		if err != nil {
			t.Fatal(err)
		}
		return c.VMBytes
	}
	os, ws, is := get(OS), get(WS), get(IS)
	if os >= ws || os >= is {
		t.Fatalf("OS VM traffic %v should be below WS %v and IS %v", os, ws, is)
	}
}

func TestCachePenaltyDegradesWS(t *testing.T) {
	// Shrinking the PE cache must not decrease WS energy, and must
	// strictly increase it once the stationary set no longer fits.
	l, err := dnn.NewConv2D("big", 64, 14, 14, 128, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	big := testHW()
	big.CacheBytes = 8 * units.KB
	big.VMBytes = 256 * units.KB
	small := testHW()
	small.CacheBytes = 128
	small.VMBytes = 256 * units.KB
	cBig, err := Evaluate(l, 1, Mapping{Dataflow: WS, Partition: ByChannel, NTile: 1}, big)
	if err != nil {
		t.Fatal(err)
	}
	cSmall, err := Evaluate(l, 1, Mapping{Dataflow: WS, Partition: ByChannel, NTile: 1}, small)
	if err != nil {
		t.Fatal(err)
	}
	if cSmall.EDf <= cBig.EDf {
		t.Fatalf("small cache %v should cost more than big cache %v", cSmall.EDf, cBig.EDf)
	}
}

func TestMorePEsFasterNeverSlower(t *testing.T) {
	// Eq. 6: T = T_df / N_PE.
	l := convLayer(t)
	base := testHW()
	base.NPE = 4
	fast := testHW()
	fast.NPE = 64
	cb, err := Evaluate(l, 1, Mapping{Dataflow: OS, NTile: 1}, base)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := Evaluate(l, 1, Mapping{Dataflow: OS, NTile: 1}, fast)
	if err != nil {
		t.Fatal(err)
	}
	if cf.TDf >= cb.TDf {
		t.Fatalf("64 PEs (%v) should beat 4 PEs (%v)", cf.TDf, cb.TDf)
	}
	if !units.ApproxEqual(float64(cb.TDf)/float64(cf.TDf), 16, 1e-6) {
		t.Fatalf("speedup should be 16x, got %v", float64(cb.TDf)/float64(cf.TDf))
	}
}

func TestNVMBandwidthBound(t *testing.T) {
	l := convLayer(t)
	hw := testHW()
	hw.NVMBytesPerSec = 1 // absurdly slow NVM
	c, err := Evaluate(l, 1, Mapping{Dataflow: OS, NTile: 1}, hw)
	if err != nil {
		t.Fatal(err)
	}
	// Streaming (in+w+out bytes)/1 Bps dominates compute time.
	if float64(c.TileTime) < float64(c.TileReadBytes)+float64(c.TileWriteBytes) {
		t.Fatalf("tile time %v should be bandwidth bound", c.TileTime)
	}
}

func TestVMOverflowRejected(t *testing.T) {
	l := convLayer(t)
	hw := testHW()
	hw.VMBytes = 128 // tiny VM: conv working set cannot fit
	_, err := Evaluate(l, 1, Mapping{Dataflow: OS, NTile: 1}, hw)
	if err == nil || !strings.Contains(err.Error(), "exceeds VM") {
		t.Fatalf("expected VM overflow error, got %v", err)
	}
}

func TestSpatialHaloOverhead(t *testing.T) {
	// Spatial tiling of a k=3, s=1 conv re-reads halo rows: input reads
	// must exceed the no-halo share but stay below the full input per tile.
	l := convLayer(t)
	c, err := Evaluate(l, 1, Mapping{Dataflow: OS, Partition: BySpatial, NTile: 4}, testHW())
	if err != nil {
		t.Fatal(err)
	}
	inB := float64(l.InputElems())
	perTileNoHalo := inB / 4
	tileIn := float64(c.TileReadBytes) - float64(l.WeightElems())
	if tileIn <= perTileNoHalo {
		t.Fatalf("tile input %v should exceed halo-free share %v", tileIn, perTileNoHalo)
	}
	if tileIn > inB {
		t.Fatalf("tile input %v should not exceed full input %v", tileIn, inB)
	}
}

func TestDenseAndMatMulExtents(t *testing.T) {
	d, _ := dnn.NewDense("d", 100, 40)
	if got := partitionExtent(&d, ByChannel); got != 40 {
		t.Fatalf("dense extent = %d, want 40", got)
	}
	m, _ := dnn.NewMatMul("m", 32, 768, 768, false)
	if got := partitionExtent(&m, ByChannel); got != 768 {
		t.Fatalf("matmul ByChannel extent = %d, want 768", got)
	}
	if got := partitionExtent(&m, BySpatial); got != 32 {
		t.Fatalf("matmul BySpatial extent = %d, want 32", got)
	}
	c1, _ := dnn.NewConv1D("c1", 4, 64, 8, 3, 1, 0)
	if got := partitionExtent(&c1, BySpatial); got != 62 {
		t.Fatalf("conv1d spatial extent = %d, want 62 (OutW)", got)
	}
}

func TestCandidateNTiles(t *testing.T) {
	l, _ := dnn.NewConv2D("c", 3, 8, 8, 12, 3, 1, 1)
	got := CandidateNTiles(l, ByChannel) // divisors of 12
	want := []int{1, 2, 3, 4, 6, 12}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
}

func TestStaticEnergy(t *testing.T) {
	hw := testHW()
	// 64KB VM at 1nW/byte for 10s = 64*1024*1e-9*10 J plus idle 50uW*10s.
	got := StaticEnergy(hw, 10)
	want := 64*1024*1e-9*10 + 50e-6*10
	if !units.ApproxEqual(float64(got), want, 1e-9) {
		t.Fatalf("static = %v, want %v", got, want)
	}
}

func TestDirectivesRendering(t *testing.T) {
	l := convLayer(t)
	ds := Directives(l, Mapping{Dataflow: WS, Partition: ByChannel, NTile: 8})
	if len(ds) != 3 {
		t.Fatalf("directives = %v", ds)
	}
	if !strings.Contains(ds[0], "InterTempMap(8,8)") {
		t.Fatalf("missing InterTempMap: %v", ds[0])
	}
	if !strings.Contains(ds[2], "WS") {
		t.Fatalf("missing dataflow tag: %v", ds[2])
	}
}

func TestStringers(t *testing.T) {
	if WS.String() != "WS" || OS.String() != "OS" || IS.String() != "IS" {
		t.Error("dataflow strings")
	}
	if !strings.Contains(Dataflow(7).String(), "7") {
		t.Error("unknown dataflow string")
	}
	if ByChannel.String() != "by-channel" || BySpatial.String() != "by-spatial" {
		t.Error("partition strings")
	}
	if len(Dataflows()) != 3 {
		t.Error("Dataflows() should list 3")
	}
}

func TestCostPropertyEnergyTimePositive(t *testing.T) {
	// Property: any legal mapping on any catalog layer yields positive
	// energy and time, and layer totals equal per-tile × NTileEffective.
	layers := dnn.CIFAR10().Layers
	f := func(li, dfSel, pSel, nSel uint8) bool {
		l := layers[int(li)%len(layers)]
		m := Mapping{
			Dataflow:  Dataflows()[int(dfSel)%3],
			Partition: Partition(int(pSel) % 2),
			NTile:     int(nSel)%16 + 1,
		}
		c, err := Evaluate(l, 2, m, testHW())
		if err != nil {
			// VM overflow is a legal rejection, not a property failure.
			return strings.Contains(err.Error(), "exceeds VM")
		}
		if c.TileEnergy <= 0 || c.TileTime <= 0 {
			return false
		}
		n := float64(c.NTileEffective)
		return units.ApproxEqual(float64(c.EDf), float64(c.TileEnergy)*n, 1e-9) &&
			units.ApproxEqual(float64(c.TDf), float64(c.TileTime)*n, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestPEUtilizationBound(t *testing.T) {
	// A dense layer with 12 outputs cannot keep 168 PEs busy: arrays
	// beyond the exposed parallelism stop helping.
	l, err := dnn.NewDense("fc", 64, 12)
	if err != nil {
		t.Fatal(err)
	}
	small := testHW()
	small.NPE = 12
	big := testHW()
	big.NPE = 168
	m := Mapping{Dataflow: OS, Partition: ByChannel, NTile: 1}
	cs, err := Evaluate(l, 1, m, small)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Evaluate(l, 1, m, big)
	if err != nil {
		t.Fatal(err)
	}
	if cb.TDf != cs.TDf {
		t.Fatalf("168 PEs (%v) should be no faster than 12 PEs (%v) on a 12-output layer", cb.TDf, cs.TDf)
	}
	// But a wide conv layer keeps scaling.
	conv := convLayer(t) // 32 channels × 16×16 outputs
	ccs, _ := Evaluate(conv, 1, m, small)
	ccb, _ := Evaluate(conv, 1, m, big)
	if ccb.TDf >= ccs.TDf {
		t.Fatalf("wide conv should still benefit from more PEs: %v vs %v", ccb.TDf, ccs.TDf)
	}
}
