package accel

import (
	"strings"
	"testing"

	"chrysalis/internal/dataflow"
	"chrysalis/internal/dnn"
	"chrysalis/internal/units"
)

func TestArchString(t *testing.T) {
	if TPU.String() != "tpu" || Eyeriss.String() != "eyeriss" {
		t.Error("arch strings")
	}
	if !strings.Contains(Arch(9).String(), "9") {
		t.Error("unknown arch string")
	}
}

func TestParseArch(t *testing.T) {
	for _, a := range Arches() {
		got, err := ParseArch(a.String())
		if err != nil || got != a {
			t.Errorf("ParseArch(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseArch("npu"); err == nil {
		t.Error("unknown arch should fail")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Arch: TPU, NPE: 64, CacheBytes: 512}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		{Arch: Arch(5), NPE: 64, CacheBytes: 512},
		{Arch: TPU, NPE: 0, CacheBytes: 512},
		{Arch: TPU, NPE: 169, CacheBytes: 512},
		{Arch: TPU, NPE: 64, CacheBytes: 64},
		{Arch: TPU, NPE: 64, CacheBytes: 4 * units.KB},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v): expected error", i, c)
		}
	}
}

func TestHWConstruction(t *testing.T) {
	c := EyerissV1()
	hw, err := c.HW(dataflow.OS)
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.Validate(); err != nil {
		t.Fatalf("generated HW invalid: %v", err)
	}
	if hw.NPE != 168 {
		t.Fatalf("NPE = %d", hw.NPE)
	}
	// VM = shared 16KB + 168×(512B cache + 768B per-PE buffer).
	want := 16*units.KB + 168*(512+768)
	if hw.VMBytes != want {
		t.Fatalf("VM = %v, want %v", hw.VMBytes, want)
	}
	if hw.StreamReuse < 10 || hw.StreamReuse > 14 {
		t.Fatalf("Eyeriss V1 stream reuse = %v, want ~12", hw.StreamReuse)
	}
	if _, err := (Config{Arch: TPU, NPE: 0, CacheBytes: 512}).HW(dataflow.WS); err == nil {
		t.Error("invalid config must not produce HW")
	}
}

func TestNonNativeDataflowPenalty(t *testing.T) {
	c := Config{Arch: TPU, NPE: 64, CacheBytes: 512}
	if c.NativeDataflow() != dataflow.WS {
		t.Fatal("TPU should be weight-stationary")
	}
	native, _ := c.HW(dataflow.WS)
	foreign, _ := c.HW(dataflow.OS)
	if foreign.TMAC <= native.TMAC || foreign.EMAC <= native.EMAC {
		t.Fatal("non-native dataflow must be slower and less efficient")
	}
	e := Config{Arch: Eyeriss, NPE: 64, CacheBytes: 512}
	if e.NativeDataflow() != dataflow.OS {
		t.Fatal("Eyeriss should be output-stationary")
	}
}

func TestEyerissAlexNetNearPublished(t *testing.T) {
	// Run AlexNet through the cost model on the Eyeriss V1 design point
	// with no intermittence (NTile=1 per layer where feasible) and check
	// the totals land within ~2x of the published Figure 2(a) row.
	cfg := EyerissV1()
	hw, err := cfg.HW(dataflow.OS)
	if err != nil {
		t.Fatal(err)
	}
	// The published row covers AlexNet's convolutional layers (its 2663
	// MOPs matches the conv MAC count), so compare conv layers only.
	w := dnn.AlexNet()
	var totalT units.Seconds
	var totalE units.Energy
	for _, l := range w.Layers {
		if l.Kind != dnn.Conv2D {
			continue
		}
		_, c, err := dataflow.MinTileMapping(l, w.ElemBytes, dataflow.OS, hw)
		if err != nil {
			t.Fatalf("layer %s has no feasible mapping: %v", l.Name, err)
		}
		totalT += c.TDf
		totalE += c.EDf
	}
	pub := PublishedEyerissAlexNet()
	ratioT := float64(totalT) / float64(pub.TimePerInput)
	ratioE := float64(totalE) / float64(pub.Energy)
	if ratioT < 0.4 || ratioT > 2.5 {
		t.Errorf("model time %v vs published %v (ratio %.2f)", totalT, pub.TimePerInput, ratioT)
	}
	if ratioE < 0.4 || ratioE > 2.5 {
		t.Errorf("model energy %v vs published %v (ratio %.2f)", totalE, pub.Energy, ratioE)
	}
}

func TestArchesDiffer(t *testing.T) {
	// The two archs must be genuinely different design points.
	tpu, _ := Config{Arch: TPU, NPE: 64, CacheBytes: 512}.HW(dataflow.WS)
	eye, _ := Config{Arch: Eyeriss, NPE: 64, CacheBytes: 512}.HW(dataflow.WS)
	if tpu.TMAC == eye.TMAC && tpu.EMAC == eye.EMAC {
		t.Fatal("TPU and Eyeriss should have distinct technology constants")
	}
}
