package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// The on-disk format is a gob-encoded netFile: an architecture spec
// (kind + integer fields per layer) plus flat weight payloads. Loading
// reconstructs the layers with zero initialization and overwrites the
// weights, so a loaded model is bit-identical to the saved one.

type layerSpec struct {
	Kind string
	Ints []int
	W, B []float64
}

type netFile struct {
	Version int
	InDim   int
	Layers  []layerSpec
}

const fileVersion = 1

func specOf(l Layer) (layerSpec, error) {
	switch v := l.(type) {
	case *Dense:
		return layerSpec{Kind: "dense", Ints: []int{v.InDim, v.OutDim_},
			W: v.W.Data, B: v.B.Data}, nil
	case *ReLU:
		return layerSpec{Kind: "relu"}, nil
	case *Conv2D:
		return layerSpec{Kind: "conv2d", Ints: []int{v.InC, v.H, v.W, v.OutC, v.K},
			W: v.Wt.Data, B: v.B.Data}, nil
	case *MaxPool2D:
		return layerSpec{Kind: "maxpool2d", Ints: []int{v.C, v.H, v.W}}, nil
	case *Residual:
		// Flatten the two inner dense layers into one spec payload.
		return layerSpec{Kind: "residual", Ints: []int{v.dim},
			W: append(append([]float64(nil), v.d1.W.Data...), v.d2.W.Data...),
			B: append(append([]float64(nil), v.d1.B.Data...), v.d2.B.Data...)}, nil
	default:
		return layerSpec{}, fmt.Errorf("nn: cannot serialize layer %T", l)
	}
}

// sizeOf returns the product of dims, or an error when one of them is
// not positive or the product overflows int.
func sizeOf(dims ...int) (int, error) {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("nn: dimensions %v must be positive", dims)
		}
		if n > math.MaxInt/d {
			return 0, fmt.Errorf("nn: dimensions %v overflow", dims)
		}
		n *= d
	}
	return n, nil
}

// checkPayload rejects a spec whose weight payload is not the product
// of wDims long, or whose bias payload is not bLen long.
func checkPayload(s layerSpec, bLen int, wDims ...int) error {
	wLen, err := sizeOf(wDims...)
	if err != nil {
		return err
	}
	if len(s.W) != wLen || len(s.B) != bLen {
		return fmt.Errorf("nn: %s weight payload mismatch", s.Kind)
	}
	return nil
}

// layerOf rebuilds one layer from its spec. The dimensions come from
// the file, so each is validated — and the weight payload, whose size
// the bytes actually read bound, is required to match them — before a
// constructor allocates from them: a hostile header is an error, not a
// panic or an out-of-memory kill.
func layerOf(s layerSpec) (Layer, error) {
	switch s.Kind {
	case "dense":
		if len(s.Ints) != 2 {
			return nil, fmt.Errorf("nn: dense spec wants 2 ints, got %d", len(s.Ints))
		}
		in, out := s.Ints[0], s.Ints[1]
		if err := checkPayload(s, out, in, out); err != nil {
			return nil, err
		}
		d := newDense(in, out)
		copy(d.W.Data, s.W)
		copy(d.B.Data, s.B)
		return d, nil
	case "relu":
		return NewReLU(), nil
	case "conv2d":
		if len(s.Ints) != 5 {
			return nil, fmt.Errorf("nn: conv2d spec wants 5 ints, got %d", len(s.Ints))
		}
		inC, h, w, outC, k := s.Ints[0], s.Ints[1], s.Ints[2], s.Ints[3], s.Ints[4]
		if k%2 == 0 {
			return nil, fmt.Errorf("nn: conv2d kernel size %d must be odd", k)
		}
		if err := checkPayload(s, outC, outC, inC, k, k); err != nil {
			return nil, err
		}
		// The input and output widths Forward allocates from.
		if _, err := sizeOf(inC, h, w); err != nil {
			return nil, err
		}
		if _, err := sizeOf(outC, h, w); err != nil {
			return nil, err
		}
		c := newConv2D(inC, h, w, outC, k)
		copy(c.Wt.Data, s.W)
		copy(c.B.Data, s.B)
		return c, nil
	case "maxpool2d":
		if len(s.Ints) != 3 {
			return nil, fmt.Errorf("nn: maxpool2d spec wants 3 ints, got %d", len(s.Ints))
		}
		c, h, w := s.Ints[0], s.Ints[1], s.Ints[2]
		if _, err := sizeOf(c, h, w); err != nil {
			return nil, err
		}
		if h%2 != 0 || w%2 != 0 {
			return nil, fmt.Errorf("nn: maxpool2d h=%d w=%d must be even", h, w)
		}
		return NewMaxPool2D(c, h, w), nil
	case "residual":
		if len(s.Ints) != 1 {
			return nil, fmt.Errorf("nn: residual spec wants 1 int, got %d", len(s.Ints))
		}
		dim := s.Ints[0]
		// Two dim x dim dense layers, flattened back to back.
		if err := checkPayload(s, 2*dim, 2, dim, dim); err != nil {
			return nil, err
		}
		b := newResidual(dim)
		wLen := dim * dim
		copy(b.d1.W.Data, s.W[:wLen])
		copy(b.d2.W.Data, s.W[wLen:])
		copy(b.d1.B.Data, s.B[:dim])
		copy(b.d2.B.Data, s.B[dim:])
		return b, nil
	default:
		return nil, fmt.Errorf("nn: unknown layer kind %q", s.Kind)
	}
}

// netToFile snapshots a network's architecture and weights as the
// netFile payload shared by the model format (Save), the
// training-checkpoint format (internal/nn checkpoints) and Clone. The
// dense and conv payloads alias the network's weight storage: encode
// them or hand them to netFromFile (which copies) before the network
// changes.
func netToFile(net *Network) (netFile, error) {
	file := netFile{Version: fileVersion, InDim: net.InDim}
	for _, l := range net.Layers {
		s, err := specOf(l)
		if err != nil {
			return netFile{}, err
		}
		file.Layers = append(file.Layers, s)
	}
	return file, nil
}

// netFromFile reconstructs a network from a netFile payload on freshly
// allocated tensors; the result is bit-identical to the snapshotted one
// and shares no storage with the payload.
func netFromFile(file netFile) (*Network, error) {
	if file.Version != fileVersion {
		return nil, fmt.Errorf("nn: unsupported model version %d", file.Version)
	}
	layers := make([]Layer, 0, len(file.Layers))
	for i, s := range file.Layers {
		l, err := layerOf(s)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
		layers = append(layers, l)
	}
	return NewNetwork(file.InDim, layers...)
}

// Save writes the network architecture and weights to w.
func Save(net *Network, w io.Writer) error {
	file, err := netToFile(net)
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(file)
}

// Load reads a network saved with Save.
func Load(r io.Reader) (*Network, error) {
	var file netFile
	if err := gob.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("nn: decode model: %w", err)
	}
	return netFromFile(file)
}

// Clone returns a deep copy of the network: same architecture,
// bit-identical weights, fresh scratch. It is the structural half of a
// Save/Load round trip — snapshot the layers, rebuild them around
// freshly allocated tensors, copy the weights in — without the
// encoding in between. A Network's forward scratch makes sharing one
// instance across concurrently stepping simulations a data race, so
// per-scenario sweeps on the per-call path clone the solver network
// once per scenario; the batched inference server (internal/batch) is
// the alternative that shares a single instance.
func Clone(net *Network) (*Network, error) {
	file, err := netToFile(net)
	if err != nil {
		return nil, err
	}
	return netFromFile(file)
}
