package dnn

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstructorsValidate(t *testing.T) {
	if _, err := NewConv2D("c", 0, 32, 32, 16, 3, 1, 1); err == nil {
		t.Error("zero channels should fail")
	}
	if _, err := NewConv2D("c", 3, 4, 4, 16, 9, 1, 0); err == nil {
		t.Error("kernel larger than input should fail")
	}
	if _, err := NewConv1D("c", 3, 4, 8, 9, 1, 0); err == nil {
		t.Error("1d kernel larger than input should fail")
	}
	if _, err := NewConv1D("c", -1, 4, 8, 3, 1, 0); err == nil {
		t.Error("negative channels should fail")
	}
	if _, err := NewDense("d", 0, 10); err == nil {
		t.Error("zero input dense should fail")
	}
	if _, err := NewPool("p", 4, 8, 8, 16, 0); err == nil {
		t.Error("pool kernel larger than input should fail")
	}
	if _, err := NewMatMul("m", 0, 4, 4, false); err == nil {
		t.Error("zero-dim matmul should fail")
	}
}

func TestConv2DShapes(t *testing.T) {
	l, err := NewConv2D("c", 3, 224, 224, 96, 11, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.OutH != 55 || l.OutW != 55 {
		t.Fatalf("AlexNet conv1 output = %dx%d, want 55x55", l.OutH, l.OutW)
	}
	// MACs = 96·55·55·3·11·11
	want := int64(96) * 55 * 55 * 3 * 121
	if l.MACs() != want {
		t.Fatalf("MACs = %d, want %d", l.MACs(), want)
	}
	// Params = 96·3·121 + 96
	if l.Params() != 96*363+96 {
		t.Fatalf("Params = %d", l.Params())
	}
}

func TestPoolDefaultStride(t *testing.T) {
	l, err := NewPool("p", 8, 28, 28, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Stride != 2 || l.OutH != 14 {
		t.Fatalf("pool stride/out = %d/%d", l.Stride, l.OutH)
	}
	if l.Params() != 0 {
		t.Fatal("pool has no params")
	}
}

func TestMatMulActivation2(t *testing.T) {
	w, err := NewMatMul("w", 32, 768, 768, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.Params() != 768*768+768 {
		t.Fatalf("weight matmul params = %d", w.Params())
	}
	a, _ := NewMatMul("a", 32, 768, 32, true)
	if a.Params() != 0 {
		t.Fatal("activation matmul must have no params")
	}
	if a.MACs() != 32*768*32 {
		t.Fatalf("MACs = %d", a.MACs())
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{Conv2D: "conv2d", Conv1D: "conv1d", Dense: "dense", Pool: "pool", MatMul: "matmul", Kind(99): "kind(99)"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// paperParams are the published parameter counts (Tables IV and V).
var paperParams = map[string]int64{
	"simpleconv": 1_200,
	"cifar10":    77_500,
	"har":        9_400,
	"kws":        49_500,
	"bert":       56_600_000,
	"alexnet":    58_700_000,
	"vgg16":      138_300_000,
	"resnet18":   11_700_000,
}

// paperMACs are the published compute figures: kFLOPs for Table IV,
// GFLOPs for Table V (the paper's Table V FLOPs column tracks MAC
// counts, as is conventional for these models).
var paperMACs = map[string]int64{
	"cifar10":  9_052_000,
	"har":      205_200,
	"kws":      49_500,
	"bert":     1_280_000_000,
	"alexnet":  1_130_000_000,
	"vgg16":    15_470_000_000,
	"resnet18": 1_810_000_000,
}

func TestCatalogMatchesPaperParams(t *testing.T) {
	for name, want := range paperParams {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got := w.TotalParams()
		ratio := float64(got) / float64(want)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: params %d vs paper %d (ratio %.2f, want within ±15%%)", name, got, want, ratio)
		}
	}
}

func TestCatalogMatchesPaperMACs(t *testing.T) {
	for name, want := range paperMACs {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got := w.TotalMACs()
		ratio := float64(got) / float64(want)
		if ratio < 0.75 || ratio > 1.35 {
			t.Errorf("%s: MACs %d vs paper %d (ratio %.2f, want within ~±30%%)", name, got, want, ratio)
		}
	}
}

func TestMNISTCNNMatchesFig2a(t *testing.T) {
	// Figure 2(a): MNIST-CNN on MSP430 is 1.608 MOPs.
	w := MNISTCNN()
	mops := float64(2*w.TotalMACs()) / 1e6 // ops = multiply + accumulate
	if mops < 1.3 || mops > 1.9 {
		t.Fatalf("MNIST-CNN = %.3f MOPs, want ≈1.608", mops)
	}
}

func TestCatalogLayerCounts(t *testing.T) {
	// Paper layer counts (weight layers for MLP/CNNs; VGG16's "13" are
	// its convolutions; ResNet18's "20" counts convs + fc).
	if got := len(KWS().Layers); got != 5 {
		t.Errorf("KWS layers = %d, want 5", got)
	}
	if got := CIFAR10().WeightLayers(); got != 7 {
		t.Errorf("CIFAR-10 weight layers = %d, want 7", got)
	}
	convs := 0
	for _, l := range VGG16().Layers {
		if l.Kind == Conv2D {
			convs++
		}
	}
	if convs != 13 {
		t.Errorf("VGG16 convs = %d, want 13", convs)
	}
	weightLayers := 0
	for _, l := range ResNet18().Layers {
		if l.Kind == Conv2D || l.Kind == Dense {
			weightLayers++
		}
	}
	if weightLayers < 18 || weightLayers > 21 {
		t.Errorf("ResNet18 weight layers = %d, want ~20", weightLayers)
	}
	if got := len(BERT().Layers); got != 40 {
		t.Errorf("BERT layers = %d, want 40 (5 blocks × 8 matmuls)", got)
	}
}

func TestAllCatalogWorkloadsValidate(t *testing.T) {
	for _, name := range Names() {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("workload %s: %v", name, err)
		}
		if w.TotalMACs() <= 0 {
			t.Errorf("workload %s: no compute", name)
		}
		if w.TotalParams() <= 0 {
			t.Errorf("workload %s: no weights", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v", err)
	}
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Fatalf("duplicate workload name %q", n)
		}
		seen[n] = true
	}
	if len(seen) != 13 {
		t.Fatalf("catalog has %d workloads, want 13", len(seen))
	}
}

func TestWorkloadValidateErrors(t *testing.T) {
	w := Workload{Name: "", ElemBytes: 2, Layers: []Layer{mustDense("d", 4, 4)}}
	if err := w.Validate(); err == nil {
		t.Error("empty name should fail")
	}
	w = Workload{Name: "x", ElemBytes: 0, Layers: []Layer{mustDense("d", 4, 4)}}
	if err := w.Validate(); err == nil {
		t.Error("zero elem width should fail")
	}
	w = Workload{Name: "x", ElemBytes: 2}
	if err := w.Validate(); err == nil {
		t.Error("no layers should fail")
	}
	// Shape mismatch: dense expects 10 inputs but input supplies 12.
	w = Workload{Name: "x", ElemBytes: 2, Input: [3]int{12, 1, 1},
		Layers: []Layer{mustDense("d", 10, 4)}}
	if err := w.Validate(); err == nil {
		t.Error("shape mismatch should fail")
	}
}

func TestDenseMACsEqualWeights(t *testing.T) {
	// Property: for any dense layer, MACs == in·out and params == MACs + out.
	f := func(a, b uint8) bool {
		in, out := int(a)+1, int(b)+1
		l, err := NewDense("d", in, out)
		if err != nil {
			return false
		}
		return l.MACs() == int64(in)*int64(out) && l.Params() == int64(in)*int64(out)+int64(out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConvOutputNeverExceedsInput(t *testing.T) {
	// Property: without padding, conv output dims never exceed input dims.
	f := func(c, h, kRaw, sRaw uint8) bool {
		inC := int(c%8) + 1
		inH := int(h%60) + 4
		k := int(kRaw%3)*2 + 1 // 1,3,5
		if k > inH {
			k = 1
		}
		s := int(sRaw%3) + 1
		l, err := NewConv2D("c", inC, inH, inH, 8, k, s, 0)
		if err != nil {
			return false
		}
		return l.OutH <= inH && l.OutW <= inH && l.OutH > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDWConv2D(t *testing.T) {
	l, err := NewDWConv2D("dw", 32, 14, 14, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.OutC != 32 || l.OutH != 14 {
		t.Fatalf("shape = %dx%dx%d", l.OutC, l.OutH, l.OutW)
	}
	// Depthwise MACs: C·H·W·k² (no cross-channel term).
	if want := int64(32 * 14 * 14 * 9); l.MACs() != want {
		t.Fatalf("MACs = %d, want %d", l.MACs(), want)
	}
	if want := int64(32*9 + 32); l.Params() != want {
		t.Fatalf("params = %d, want %d", l.Params(), want)
	}
	if l.Kind.String() != "dwconv2d" {
		t.Fatalf("kind = %s", l.Kind)
	}
	if _, err := NewDWConv2D("dw", 0, 14, 14, 3, 1, 1); err == nil {
		t.Fatal("zero channels should fail")
	}
	if _, err := NewDWConv2D("dw", 4, 4, 4, 9, 1, 0); err == nil {
		t.Fatal("oversized kernel should fail")
	}
}

func TestMobileNetVWW(t *testing.T) {
	w := MobileNetVWW()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// MobileNetV1-0.25 on 96x96: ~0.2-0.5M params, ~7-15 MMACs.
	params := w.TotalParams()
	if params < 150_000 || params > 600_000 {
		t.Fatalf("params = %d, want MobileNet-0.25 scale", params)
	}
	macs := w.TotalMACs()
	if macs < 4_000_000 || macs > 30_000_000 {
		t.Fatalf("MACs = %d", macs)
	}
	// Depthwise layers must be dramatically cheaper than their pointwise
	// companions — the separable-conv premise.
	var dwMACs, pwMACs int64
	for _, l := range w.Layers {
		switch {
		case l.Kind == DWConv2D:
			dwMACs += l.MACs()
		case l.Kind == Conv2D && l.KH == 1:
			pwMACs += l.MACs()
		}
	}
	if dwMACs == 0 || pwMACs == 0 {
		t.Fatal("expected both dw and pw layers")
	}
	if dwMACs >= pwMACs {
		t.Fatalf("depthwise (%d) should be far cheaper than pointwise (%d)", dwMACs, pwMACs)
	}
}

// TestByNameMatchesCatalogScan: the name table builds, for every name,
// exactly the workload a scan of every catalog constructor finds first
// under that name, and lists the names in that scan's order.
func TestByNameMatchesCatalogScan(t *testing.T) {
	all := append(ExistingAuT(), FutureAuT()...)
	all = append(all, MNISTCNN(), CNNb(), CNNs(), FCNet(), MobileNetVWW())
	names := Names()
	if len(names) != len(all) {
		t.Fatalf("%d names, %d catalog workloads", len(names), len(all))
	}
	for i, name := range names {
		if name != all[i].Name {
			t.Errorf("name %d = %q, catalog scan has %q", i, name, all[i].Name)
		}
		got, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range all {
			if w.Name == name {
				if !reflect.DeepEqual(got, w) {
					t.Errorf("ByName(%q) differs from the first catalog match", name)
				}
				break
			}
		}
	}
}

// TestByNameAllocs gates one lookup's allocations exactly: ByName
// allocates what building the one workload asked for does, and nothing
// for the rest of the catalog.
func TestByNameAllocs(t *testing.T) {
	const kwsAllocs = 1 // the layer slice
	if n := testing.AllocsPerRun(100, func() { _ = KWS() }); n != kwsAllocs {
		t.Fatalf("KWS() allocates %v times, want %d", n, kwsAllocs)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ByName("kws") }); n != kwsAllocs {
		t.Errorf("ByName(\"kws\") allocates %v times, want %d", n, kwsAllocs)
	}
}
