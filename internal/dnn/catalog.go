package dnn

import "fmt"

// The catalog reproduces the benchmark networks of the paper's
// evaluation:
//
//   - Table IV (existing MSP430-class AuT): SimpleConv, CIFAR-10, HAR,
//     KWS — Q15 (2-byte) arithmetic.
//   - Table V (future accelerator-based AuT): BERT, AlexNet, VGG16,
//     ResNet18 — int8 (1-byte) arithmetic.
//   - Figure 2 motivational workloads: MNIST-CNN (2a) and CNN_b / CNN_s /
//     FC (2b).
//
// Layer configurations are chosen so parameter counts land on the
// paper's published values (Tables IV/V); MAC counts then follow from
// the shapes. EXPERIMENTS.md records any residual deviation.

// catalog builders panic on constructor errors: the shapes are static
// and covered by tests, so a failure is a programmer error.
func mustConv2D(name string, inC, inH, inW, outC, k, stride, pad int) Layer {
	l, err := NewConv2D(name, inC, inH, inW, outC, k, stride, pad)
	if err != nil {
		panic(err)
	}
	return l
}

func mustConv1D(name string, inC, inW, outC, k, stride, pad int) Layer {
	l, err := NewConv1D(name, inC, inW, outC, k, stride, pad)
	if err != nil {
		panic(err)
	}
	return l
}

func mustDense(name string, in, out int) Layer {
	l, err := NewDense(name, in, out)
	if err != nil {
		panic(err)
	}
	return l
}

func mustPool(name string, inC, inH, inW, k, stride int) Layer {
	l, err := NewPool(name, inC, inH, inW, k, stride)
	if err != nil {
		panic(err)
	}
	return l
}

func mustDWConv2D(name string, inC, inH, inW, k, stride, pad int) Layer {
	l, err := NewDWConv2D(name, inC, inH, inW, k, stride, pad)
	if err != nil {
		panic(err)
	}
	return l
}

func mustPool1D(name string, inC, inW, k, stride int) Layer {
	l, err := NewPool1D(name, inC, inW, k, stride)
	if err != nil {
		panic(err)
	}
	return l
}

func mustMatMul(name string, m, k, n int, act2 bool) Layer {
	l, err := NewMatMul(name, m, k, n, act2)
	if err != nil {
		panic(err)
	}
	return l
}

// SimpleConv is Table IV's "Simple Conv": a single convolution on a
// 3×32×32 input with ~1.2k parameters.
func SimpleConv() Workload {
	return Workload{
		Name:  "simpleconv",
		Input: [3]int{3, 32, 32},
		Layers: []Layer{
			mustConv2D("conv", 3, 32, 32, 16, 5, 4, 0),
		},
		ElemBytes: 2,
	}
}

// CIFAR10 is Table IV's 7-layer CIFAR-10 CNN (~77.5k params, ~9 MFLOPs).
func CIFAR10() Workload {
	return Workload{
		Name:  "cifar10",
		Input: [3]int{3, 32, 32},
		Layers: []Layer{
			mustConv2D("conv1", 3, 32, 32, 16, 3, 1, 1),
			mustConv2D("conv2", 16, 32, 32, 16, 3, 1, 1),
			mustPool("pool1", 16, 32, 32, 2, 2),
			mustConv2D("conv3", 16, 16, 16, 32, 3, 1, 1),
			mustConv2D("conv4", 32, 16, 16, 32, 3, 1, 1),
			mustPool("pool2", 32, 16, 16, 2, 2),
			mustConv2D("conv5", 32, 8, 8, 64, 3, 1, 1),
			mustPool("pool3", 64, 8, 8, 2, 2),
			mustDense("fc1", 1024, 40),
			mustDense("fc2", 40, 10),
		},
		ElemBytes: 2,
	}
}

// HAR is Table IV's 5-layer human-activity-recognition network
// (~9.4k params, ~205 kFLOPs) over 9-channel inertial sequences.
func HAR() Workload {
	return Workload{
		Name:  "har",
		Input: [3]int{9, 1, 128},
		Layers: []Layer{
			mustConv1D("conv1", 9, 128, 12, 5, 1, 0),
			mustConv1D("conv2", 12, 124, 12, 5, 1, 0),
			mustPool1D("pool", 12, 120, 2, 2),
			mustConv1D("conv3", 12, 60, 16, 5, 1, 0),
			mustDense("fc", 16*56, 8),
		},
		ElemBytes: 2,
	}
}

// KWS is Table IV's 5-layer keyword-spotting MLP over 250 MFCC features
// (~49.5k params; FLOPs ≈ params for fully-connected nets).
func KWS() Workload {
	return Workload{
		Name:  "kws",
		Input: [3]int{250, 1, 1},
		Layers: []Layer{
			mustDense("fc1", 250, 120),
			mustDense("fc2", 120, 100),
			mustDense("fc3", 100, 60),
			mustDense("fc4", 60, 20),
			mustDense("fc5", 20, 12),
		},
		ElemBytes: 2,
	}
}

// bertSeqLen is the sequence length used to model BERT's compute; the
// paper quotes (1,768) input with 1.28 GFLOPs, which corresponds to a
// short sequence through 5 encoder blocks at hidden size 768.
const bertSeqLen = 32

// BERT is Table V's 5-block transformer encoder (hidden 768,
// ~56.6M params including the embedding table, ~1.28 GMACs).
func BERT() Workload {
	const (
		h   = 768
		ffn = 4 * h
		s   = bertSeqLen
	)
	var layers []Layer
	for b := 0; b < 5; b++ {
		p := func(n string) string { return fmt.Sprintf("blk%d.%s", b, n) }
		layers = append(layers,
			mustMatMul(p("q"), s, h, h, false),
			mustMatMul(p("k"), s, h, h, false),
			mustMatMul(p("v"), s, h, h, false),
			mustMatMul(p("scores"), s, h, s, true),
			mustMatMul(p("attnv"), s, s, h, true),
			mustMatMul(p("proj"), s, h, h, false),
			mustMatMul(p("ffn1"), s, h, ffn, false),
			mustMatMul(p("ffn2"), s, ffn, h, false),
		)
	}
	return Workload{
		Name:        "bert",
		Input:       [3]int{1, 1, 768},
		Layers:      layers,
		ElemBytes:   1,
		ExtraParams: 30522 * 768, // WordPiece embedding table
	}
}

// AlexNet is Table V's 7-weight-layer AlexNet (~58.7M params,
// ~1.13 GMACs; modeled without the historical channel groups).
func AlexNet() Workload {
	return Workload{
		Name:  "alexnet",
		Input: [3]int{3, 224, 224},
		Layers: []Layer{
			mustConv2D("conv1", 3, 224, 224, 96, 11, 4, 2),
			mustPool("pool1", 96, 55, 55, 3, 2),
			mustConv2D("conv2", 96, 27, 27, 256, 5, 1, 2),
			mustPool("pool2", 256, 27, 27, 3, 2),
			mustConv2D("conv3", 256, 13, 13, 384, 3, 1, 1),
			mustConv2D("conv4", 384, 13, 13, 384, 3, 1, 1),
			mustConv2D("conv5", 384, 13, 13, 256, 3, 1, 1),
			mustPool("pool3", 256, 13, 13, 3, 2),
			mustDense("fc1", 9216, 4096),
			mustDense("fc2", 4096, 4096),
			mustDense("fc3", 4096, 1000),
		},
		ElemBytes: 1,
	}
}

// VGG16 is Table V's 13-conv VGG16 (~138.3M params, ~15.5 GMACs).
func VGG16() Workload {
	type group struct{ n, c, hw int }
	groups := []group{{2, 64, 224}, {2, 128, 112}, {3, 256, 56}, {3, 512, 28}, {3, 512, 14}}
	inC := 3
	var layers []Layer
	for gi, g := range groups {
		for i := 0; i < g.n; i++ {
			name := fmt.Sprintf("conv%d_%d", gi+1, i+1)
			layers = append(layers, mustConv2D(name, inC, g.hw, g.hw, g.c, 3, 1, 1))
			inC = g.c
		}
		layers = append(layers, mustPool(fmt.Sprintf("pool%d", gi+1), g.c, g.hw, g.hw, 2, 2))
	}
	layers = append(layers,
		mustDense("fc1", 512*7*7, 4096),
		mustDense("fc2", 4096, 4096),
		mustDense("fc3", 4096, 1000),
	)
	return Workload{
		Name:      "vgg16",
		Input:     [3]int{3, 224, 224},
		Layers:    layers,
		ElemBytes: 1,
	}
}

// ResNet18 is Table V's 20-layer ResNet-18 (~11.7M params, ~1.81 GMACs).
// Downsample shortcut convolutions are marked Branch: they read the
// block input rather than the preceding layer's output.
func ResNet18() Workload {
	var layers []Layer
	layers = append(layers,
		mustConv2D("conv1", 3, 224, 224, 64, 7, 2, 3),
		mustPool("pool1", 64, 112, 112, 3, 2), // 112 -> 55 with floor((112-3)/2)+1
	)
	// Stage helper: two basic blocks; the first may downsample.
	stage := func(name string, inC, outC, inHW int, downsample bool) int {
		hw := inHW
		stride := 1
		if downsample {
			stride = 2
			hw = (inHW+2-3)/stride + 1
			ds := mustConv2D(name+".ds", inC, inHW, inHW, outC, 1, 2, 0)
			ds.Branch = true
			layers = append(layers,
				mustConv2D(name+".b1c1", inC, inHW, inHW, outC, 3, 2, 1),
				mustConv2D(name+".b1c2", outC, hw, hw, outC, 3, 1, 1),
				ds,
			)
		} else {
			layers = append(layers,
				mustConv2D(name+".b1c1", inC, inHW, inHW, outC, 3, 1, 1),
				mustConv2D(name+".b1c2", outC, hw, hw, outC, 3, 1, 1),
			)
		}
		layers = append(layers,
			mustConv2D(name+".b2c1", outC, hw, hw, outC, 3, 1, 1),
			mustConv2D(name+".b2c2", outC, hw, hw, outC, 3, 1, 1),
		)
		return hw
	}
	hw := 55
	hw = stage("stage1", 64, 64, hw, false)
	hw = stage("stage2", 64, 128, hw, true)
	hw = stage("stage3", 128, 256, hw, true)
	hw = stage("stage4", 256, 512, hw, true)
	layers = append(layers,
		mustPool("gap", 512, hw, hw, hw, hw), // global average pool
		mustDense("fc", 512, 1000),
	)
	return Workload{
		Name:      "resnet18",
		Input:     [3]int{3, 224, 224},
		Layers:    layers,
		ElemBytes: 1,
	}
}

// MNISTCNN is the Figure 2(a) workload run on the MSP430: a LeNet-style
// MNIST CNN with ~1.6 MOPs (0.8 GMACs × 10⁻³).
func MNISTCNN() Workload {
	return Workload{
		Name:  "mnist-cnn",
		Input: [3]int{1, 28, 28},
		Layers: []Layer{
			mustConv2D("conv1", 1, 28, 28, 8, 5, 1, 2),
			mustPool("pool1", 8, 28, 28, 2, 2),
			mustConv2D("conv2", 8, 14, 14, 16, 5, 1, 2),
			mustPool("pool2", 16, 14, 14, 2, 2),
			mustDense("fc", 784, 10),
		},
		ElemBytes: 2,
	}
}

// CNNb is Figure 2(b)'s larger CNN application.
func CNNb() Workload {
	w := MNISTCNN()
	w.Name = "cnn_b"
	return w
}

// CNNs is Figure 2(b)'s smaller CNN application.
func CNNs() Workload {
	return Workload{
		Name:  "cnn_s",
		Input: [3]int{1, 16, 16},
		Layers: []Layer{
			mustConv2D("conv", 1, 16, 16, 4, 5, 1, 0),
			mustPool("pool", 4, 12, 12, 2, 2),
			mustDense("fc", 144, 10),
		},
		ElemBytes: 2,
	}
}

// FCNet is Figure 2(b)'s fully-connected application.
func FCNet() Workload {
	return Workload{
		Name:  "fc",
		Input: [3]int{64, 1, 1},
		Layers: []Layer{
			mustDense("fc1", 64, 32),
			mustDense("fc2", 32, 10),
		},
		ElemBytes: 2,
	}
}

// MobileNetVWW is an extension workload beyond the paper's catalog: a
// MobileNetV1-0.25 visual-wake-words classifier on 96x96 input, the
// canonical depthwise-separable edge vision network. It exercises the
// DWConv2D layer kind end to end.
func MobileNetVWW() Workload {
	type block struct {
		c, outC, hw, stride int
	}
	blocks := []block{
		{8, 16, 48, 1},
		{16, 32, 48, 2},
		{32, 32, 24, 1},
		{32, 64, 24, 2},
		{64, 64, 12, 1},
		{64, 128, 12, 2},
		{128, 128, 6, 1},
		{128, 128, 6, 1},
		{128, 128, 6, 1},
		{128, 128, 6, 1},
		{128, 128, 6, 1},
		{128, 256, 6, 2},
		{256, 256, 3, 1},
	}
	layers := []Layer{mustConv2D("conv1", 3, 96, 96, 8, 3, 2, 1)}
	for i, b := range blocks {
		outHW := b.hw
		if b.stride == 2 {
			outHW = (b.hw+2-3)/2 + 1
		}
		layers = append(layers,
			mustDWConv2D(fmt.Sprintf("dw%d", i+1), b.c, b.hw, b.hw, 3, b.stride, 1),
			mustConv2D(fmt.Sprintf("pw%d", i+1), b.c, outHW, outHW, b.outC, 1, 1, 0),
		)
	}
	layers = append(layers,
		mustPool("gap", 256, 3, 3, 3, 3),
		mustDense("fc", 256, 2),
	)
	return Workload{
		Name:      "mobilenet-vww",
		Input:     [3]int{3, 96, 96},
		Layers:    layers,
		ElemBytes: 1,
	}
}

// ExistingAuT returns the Table IV workload set in paper order.
func ExistingAuT() []Workload {
	return []Workload{SimpleConv(), CIFAR10(), HAR(), KWS()}
}

// FutureAuT returns the Table V workload set in paper order.
func FutureAuT() []Workload {
	return []Workload{BERT(), AlexNet(), VGG16(), ResNet18()}
}

// catalog lists every workload constructor in catalog order under the
// name it builds, so a lookup builds only the network it returns.
var catalog = []struct {
	name  string
	build func() Workload
}{
	{"simpleconv", SimpleConv},
	{"cifar10", CIFAR10},
	{"har", HAR},
	{"kws", KWS},
	{"bert", BERT},
	{"alexnet", AlexNet},
	{"vgg16", VGG16},
	{"resnet18", ResNet18},
	{"mnist-cnn", MNISTCNN},
	{"cnn_b", CNNb},
	{"cnn_s", CNNs},
	{"fc", FCNet},
	{"mobilenet-vww", MobileNetVWW},
}

// ByName looks up any catalog workload by its Name field.
func ByName(name string) (Workload, error) {
	for _, c := range catalog {
		if c.name == name {
			return c.build(), nil
		}
	}
	return Workload{}, fmt.Errorf("dnn: unknown workload %q", name)
}

// Names lists every catalog workload name.
func Names() []string {
	names := make([]string, len(catalog))
	for i, c := range catalog {
		names[i] = c.name
	}
	return names
}
