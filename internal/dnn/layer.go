// Package dnn defines the neural-network workload representation used by
// CHRYSALIS: a layer-level intermediate representation with exact shape,
// parameter, MAC and byte accounting, plus the catalog of benchmark
// networks from the paper's Tables IV and V (SimpleConv, CIFAR-10, HAR,
// KWS for the existing-AuT experiments; BERT, AlexNet, VGG16, ResNet18
// for the accelerator experiments) and the Figure 2 motivational
// workloads.
//
// CHRYSALIS never executes networks numerically — the evaluator needs
// "the number of data and compute operations" (Sec. III-C) — so the IR
// carries dimensions and counts, not tensors.
package dnn

import "fmt"

// Kind classifies a layer for the dataflow mapper.
type Kind int

const (
	// Conv2D is a standard 2-D convolution.
	Conv2D Kind = iota
	// Conv1D is a 1-D (temporal) convolution.
	Conv1D
	// Dense is a fully-connected layer.
	Dense
	// Pool is a max/average pooling layer (no weights).
	Pool
	// MatMul is a general matrix multiply, used to model transformer
	// projections and attention score/value products.
	MatMul
	// DWConv2D is a depthwise 2-D convolution: one filter per input
	// channel (MobileNet-class efficiency layers).
	DWConv2D
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Conv2D:
		return "conv2d"
	case Conv1D:
		return "conv1d"
	case Dense:
		return "dense"
	case Pool:
		return "pool"
	case MatMul:
		return "matmul"
	case DWConv2D:
		return "dwconv2d"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Layer is one weight (or pooling) layer. Shapes follow CHW order.
// Construct layers with the typed constructors below, which compute
// output shapes and validate dimensions.
type Layer struct {
	Name string
	Kind Kind

	// Input shape.
	InC, InH, InW int
	// Output shape.
	OutC, OutH, OutW int
	// Kernel for conv/pool layers.
	KH, KW, Stride, Pad int
	// M, K, N for MatMul: (M×K)·(K×N), with weights treated as the K×N
	// operand unless Activation2 is set.
	M, K, N int
	// Activation2 marks a MatMul whose second operand is an activation
	// (attention scores × values), so it contributes no parameters.
	Activation2 bool
	// Branch marks a layer fed from an earlier point in the network
	// (e.g. a ResNet downsample shortcut): shape chaining is not checked
	// against the immediately preceding layer and the layer does not
	// advance the chain.
	Branch bool
}

// NewConv2D builds a 2-D convolution layer. Output spatial dims follow
// the standard floor formula.
func NewConv2D(name string, inC, inH, inW, outC, k, stride, pad int) (Layer, error) {
	if inC <= 0 || inH <= 0 || inW <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		return Layer{}, fmt.Errorf("dnn: conv2d %q: non-positive dimension", name)
	}
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	if k > inH+2*pad || k > inW+2*pad || outH <= 0 || outW <= 0 {
		return Layer{}, fmt.Errorf("dnn: conv2d %q: kernel %d exceeds padded input %dx%d", name, k, inH, inW)
	}
	return Layer{
		Name: name, Kind: Conv2D,
		InC: inC, InH: inH, InW: inW,
		OutC: outC, OutH: outH, OutW: outW,
		KH: k, KW: k, Stride: stride, Pad: pad,
	}, nil
}

// NewConv1D builds a 1-D convolution over a length-inW sequence with inC
// channels.
func NewConv1D(name string, inC, inW, outC, k, stride, pad int) (Layer, error) {
	if inC <= 0 || inW <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		return Layer{}, fmt.Errorf("dnn: conv1d %q: non-positive dimension", name)
	}
	outW := (inW+2*pad-k)/stride + 1
	if k > inW+2*pad || outW <= 0 {
		return Layer{}, fmt.Errorf("dnn: conv1d %q: kernel %d exceeds padded input %d", name, k, inW)
	}
	return Layer{
		Name: name, Kind: Conv1D,
		InC: inC, InH: 1, InW: inW,
		OutC: outC, OutH: 1, OutW: outW,
		KH: 1, KW: k, Stride: stride, Pad: pad,
	}, nil
}

// NewDense builds a fully-connected layer from in to out features.
func NewDense(name string, in, out int) (Layer, error) {
	if in <= 0 || out <= 0 {
		return Layer{}, fmt.Errorf("dnn: dense %q: non-positive dimension", name)
	}
	return Layer{
		Name: name, Kind: Dense,
		InC: in, InH: 1, InW: 1,
		OutC: out, OutH: 1, OutW: 1,
	}, nil
}

// NewDWConv2D builds a depthwise 2-D convolution: each input channel is
// filtered independently (OutC == InC).
func NewDWConv2D(name string, inC, inH, inW, k, stride, pad int) (Layer, error) {
	if inC <= 0 || inH <= 0 || inW <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		return Layer{}, fmt.Errorf("dnn: dwconv2d %q: non-positive dimension", name)
	}
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	if k > inH+2*pad || k > inW+2*pad || outH <= 0 || outW <= 0 {
		return Layer{}, fmt.Errorf("dnn: dwconv2d %q: kernel %d exceeds padded input %dx%d", name, k, inH, inW)
	}
	return Layer{
		Name: name, Kind: DWConv2D,
		InC: inC, InH: inH, InW: inW,
		OutC: inC, OutH: outH, OutW: outW,
		KH: k, KW: k, Stride: stride, Pad: pad,
	}, nil
}

// NewPool builds a pooling layer (stride defaults to the kernel when 0).
func NewPool(name string, inC, inH, inW, k, stride int) (Layer, error) {
	if stride == 0 {
		stride = k
	}
	if inC <= 0 || inH <= 0 || inW <= 0 || k <= 0 || stride <= 0 {
		return Layer{}, fmt.Errorf("dnn: pool %q: non-positive dimension", name)
	}
	outH := (inH-k)/stride + 1
	outW := (inW-k)/stride + 1
	if k > inH || k > inW || outH <= 0 || outW <= 0 {
		return Layer{}, fmt.Errorf("dnn: pool %q: kernel %d exceeds input %dx%d", name, k, inH, inW)
	}
	return Layer{
		Name: name, Kind: Pool,
		InC: inC, InH: inH, InW: inW,
		OutC: inC, OutH: outH, OutW: outW,
		KH: k, KW: k, Stride: stride,
	}, nil
}

// NewPool1D builds a pooling layer over the width dimension only, for
// 1-D (temporal) networks. Stride defaults to the kernel when 0.
func NewPool1D(name string, inC, inW, k, stride int) (Layer, error) {
	if stride == 0 {
		stride = k
	}
	if inC <= 0 || inW <= 0 || k <= 0 || stride <= 0 {
		return Layer{}, fmt.Errorf("dnn: pool1d %q: non-positive dimension", name)
	}
	outW := (inW-k)/stride + 1
	if k > inW || outW <= 0 {
		return Layer{}, fmt.Errorf("dnn: pool1d %q: kernel %d exceeds input %d", name, k, inW)
	}
	return Layer{
		Name: name, Kind: Pool,
		InC: inC, InH: 1, InW: inW,
		OutC: inC, OutH: 1, OutW: outW,
		KH: 1, KW: k, Stride: stride,
	}, nil
}

// NewMatMul builds an (M×K)·(K×N) product. When activation2 is true the
// second operand is itself an activation and carries no parameters.
func NewMatMul(name string, m, k, n int, activation2 bool) (Layer, error) {
	if m <= 0 || k <= 0 || n <= 0 {
		return Layer{}, fmt.Errorf("dnn: matmul %q: non-positive dimension", name)
	}
	return Layer{
		Name: name, Kind: MatMul,
		M: m, K: k, N: n, Activation2: activation2,
		InC: 1, InH: m, InW: k,
		OutC: 1, OutH: m, OutW: n,
	}, nil
}

// MACs returns the multiply-accumulate count of the layer.
func (l *Layer) MACs() int64 {
	switch l.Kind {
	case Conv2D:
		return int64(l.OutC) * int64(l.OutH) * int64(l.OutW) * int64(l.InC) * int64(l.KH) * int64(l.KW)
	case Conv1D:
		return int64(l.OutC) * int64(l.OutW) * int64(l.InC) * int64(l.KW)
	case Dense:
		return int64(l.InC) * int64(l.OutC)
	case Pool:
		// Pooling performs comparisons/additions, not MACs; we charge one
		// op per element visited, folded into MACs for simplicity.
		return int64(l.OutC) * int64(l.OutH) * int64(l.OutW) * int64(l.KH) * int64(l.KW)
	case MatMul:
		return int64(l.M) * int64(l.K) * int64(l.N)
	case DWConv2D:
		return int64(l.OutC) * int64(l.OutH) * int64(l.OutW) * int64(l.KH) * int64(l.KW)
	default:
		return 0
	}
}

// Params returns the weight-parameter count (including biases).
func (l *Layer) Params() int64 {
	switch l.Kind {
	case Conv2D:
		return int64(l.OutC)*int64(l.InC)*int64(l.KH)*int64(l.KW) + int64(l.OutC)
	case Conv1D:
		return int64(l.OutC)*int64(l.InC)*int64(l.KW) + int64(l.OutC)
	case Dense:
		return int64(l.InC)*int64(l.OutC) + int64(l.OutC)
	case Pool:
		return 0
	case MatMul:
		if l.Activation2 {
			return 0
		}
		return int64(l.K)*int64(l.N) + int64(l.N)
	case DWConv2D:
		return int64(l.InC)*int64(l.KH)*int64(l.KW) + int64(l.InC)
	default:
		return 0
	}
}

// InputElems returns the number of input activation elements.
func (l *Layer) InputElems() int64 {
	if l.Kind == MatMul {
		return int64(l.M) * int64(l.K)
	}
	return int64(l.InC) * int64(l.InH) * int64(l.InW)
}

// OutputElems returns the number of output activation elements.
func (l *Layer) OutputElems() int64 {
	if l.Kind == MatMul {
		return int64(l.M) * int64(l.N)
	}
	return int64(l.OutC) * int64(l.OutH) * int64(l.OutW)
}

// WeightElems returns the number of weight elements (0 for pool and
// activation-activation matmuls).
func (l *Layer) WeightElems() int64 { return l.Params() }

// Validate performs internal-consistency checks used by property tests.
func (l Layer) Validate() error {
	if l.MACs() < 0 || l.Params() < 0 {
		return fmt.Errorf("dnn: layer %q: negative counts", l.Name)
	}
	if l.OutputElems() <= 0 || l.InputElems() <= 0 {
		return fmt.Errorf("dnn: layer %q: empty tensor", l.Name)
	}
	return nil
}

// Workload is a named network: an ordered list of layers plus the
// element width used on the target platform (2 bytes for Q15 MSP-class
// math, 1 byte for int8 accelerators).
type Workload struct {
	Name      string
	Input     [3]int // C, H, W
	Layers    []Layer
	ElemBytes int
	// ExtraParams counts parameters that are storage-only (embedding
	// tables): they contribute to model size but not to compute.
	ExtraParams int64
}

// TotalMACs sums MACs over all layers.
func (w Workload) TotalMACs() int64 {
	var s int64
	for _, l := range w.Layers {
		s += l.MACs()
	}
	return s
}

// TotalParams sums parameters over all layers plus any storage-only
// extras (embedding tables).
func (w Workload) TotalParams() int64 {
	s := w.ExtraParams
	for _, l := range w.Layers {
		s += l.Params()
	}
	return s
}

// WeightLayers counts layers that carry parameters.
func (w Workload) WeightLayers() int {
	n := 0
	for _, l := range w.Layers {
		if l.Params() > 0 {
			n++
		}
	}
	return n
}

// Validate checks the layer chain is shape-consistent: each layer's
// input must match the previous layer's output (Dense layers flatten).
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("dnn: workload has no name")
	}
	if w.ElemBytes <= 0 {
		return fmt.Errorf("dnn: workload %q: non-positive element width", w.Name)
	}
	if len(w.Layers) == 0 {
		return fmt.Errorf("dnn: workload %q has no layers", w.Name)
	}
	prevElems := int64(w.Input[0]) * int64(w.Input[1]) * int64(w.Input[2])
	for i, l := range w.Layers {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("dnn: workload %q layer %d: %w", w.Name, i, err)
		}
		if l.Branch {
			continue // fed from an earlier point; does not advance the chain
		}
		if l.Kind == Dense {
			if l.InputElems() != prevElems {
				return fmt.Errorf("dnn: workload %q layer %d (%s): dense input %d != upstream elements %d",
					w.Name, i, l.Name, l.InputElems(), prevElems)
			}
		} else if l.Kind != MatMul {
			if in := l.InputElems(); in != prevElems {
				return fmt.Errorf("dnn: workload %q layer %d (%s): input elements %d != upstream %d",
					w.Name, i, l.Name, in, prevElems)
			}
		}
		prevElems = l.OutputElems()
	}
	return nil
}
