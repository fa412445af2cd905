package nn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dlpic/internal/rng"
)

// buildArchs returns one network of every architecture family at small
// sizes (CNN input 8x8 => InDim 64).
func buildArchs(t *testing.T) map[string]*Network {
	t.Helper()
	mlp, err := NewMLP(MLPConfig{InDim: 24, OutDim: 10, Hidden: 16, HiddenLayers: 2}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	cnn, err := NewCNN(CNNConfig{H: 8, W: 8, OutDim: 6, Channels1: 2, Channels2: 3, Hidden: 12, HiddenLayers: 1}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewResMLP(ResMLPConfig{InDim: 24, OutDim: 10, Hidden: 16, Blocks: 2}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Network{"mlp": mlp, "cnn": cnn, "resmlp": res}
}

// TestPredictBatchMatchesPredict1 is the batching correctness property:
// every row of a PredictBatch result is bit-identical (==, not within
// tolerance) to Predict1 on that row, for every architecture family and
// a spread of batch sizes, regardless of the order rows were stacked.
func TestPredictBatchMatchesPredict1(t *testing.T) {
	for name, net := range buildArchs(t) {
		t.Run(name, func(t *testing.T) {
			inDim, outDim := net.InDim, net.OutDim()
			r := rng.New(99)
			for _, batch := range []int{1, 2, 3, 5, 8, 17} {
				in := make([]float64, batch*inDim)
				for i := range in {
					in[i] = r.NormFloat64()
				}
				out := make([]float64, batch*outDim)
				net.PredictBatch(batch, in, out)
				ref := make([]float64, outDim)
				for row := 0; row < batch; row++ {
					net.Predict1(in[row*inDim:(row+1)*inDim], ref)
					got := out[row*outDim : (row+1)*outDim]
					for j := range ref {
						if got[j] != ref[j] {
							t.Fatalf("batch %d row %d col %d: batched %v != per-call %v",
								batch, row, j, got[j], ref[j])
						}
					}
				}
			}
		})
	}
}

// TestPredictBatchInterleaved checks that alternating batch sizes and
// per-call predictions on the same network never perturb each other
// (they share layer scratch, resized on demand).
func TestPredictBatchInterleaved(t *testing.T) {
	net := buildArchs(t)["mlp"]
	inDim, outDim := net.InDim, net.OutDim()
	r := rng.New(7)
	in := make([]float64, 8*inDim)
	for i := range in {
		in[i] = r.NormFloat64()
	}
	want := make([]float64, 8*outDim)
	for row := 0; row < 8; row++ {
		net.Predict1(in[row*inDim:(row+1)*inDim], want[row*outDim:(row+1)*outDim])
	}
	for _, batch := range []int{3, 8, 1, 5, 8, 2} {
		out := make([]float64, batch*outDim)
		net.PredictBatch(batch, in[:batch*inDim], out)
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("batch %d: output[%d] = %v, want %v", batch, i, out[i], want[i])
			}
		}
	}
}

// TestPredictBatchShapePanics pins the contract violations down to
// panics rather than silent corruption.
func TestPredictBatchShapePanics(t *testing.T) {
	net := buildArchs(t)["mlp"]
	for _, tc := range []struct {
		name  string
		batch int
		inLen int
		out   int
	}{
		{"zero-batch", 0, 0, 0},
		{"short-input", 2, net.InDim, 2 * net.OutDim()},
		{"short-output", 2, 2 * net.InDim, net.OutDim()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			net.PredictBatch(tc.batch, make([]float64, tc.inLen), make([]float64, tc.out))
		})
	}
}

// copiesOf returns the two copies a network can have — Clone's
// structural one and Save→Load's serialized one — which must be
// indistinguishable from each other and from the source.
func copiesOf(t *testing.T, net *Network) map[string]*Network {
	t.Helper()
	clone, err := Clone(net)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(netBytes(t, net)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Network{"clone": clone, "save-load": loaded}
}

// weightsOf snapshots every parameter value of a network.
func weightsOf(net *Network) [][]float64 {
	var out [][]float64
	for _, p := range net.Params() {
		out = append(out, append([]float64(nil), p.W.Data...))
	}
	return out
}

// TestCopiesBitIdenticalAndDeep: for every architecture family, Clone
// and Save→Load both give bitwise-equal parameters and predictions, on
// freshly allocated tensors — mutating or training the copy never moves
// the source — and saving a copy writes the bytes saving the source
// writes.
func TestCopiesBitIdenticalAndDeep(t *testing.T) {
	for name, net := range buildArchs(t) {
		t.Run(name, func(t *testing.T) {
			r := rng.New(5)
			in := make([]float64, net.InDim)
			for i := range in {
				in[i] = r.NormFloat64()
			}
			want := make([]float64, net.OutDim())
			net.Predict1(in, want)
			saved, before := netBytes(t, net), weightsOf(net)
			for kind, cp := range copiesOf(t, net) {
				// Equal values here, equal bits (signed zeros included) by
				// the saved-bytes comparison below.
				if !reflect.DeepEqual(weightsOf(cp), before) {
					t.Fatalf("%s: parameters differ from the source's", kind)
				}
				for i, p := range cp.Params() {
					if &p.W.Data[0] == &net.Params()[i].W.Data[0] {
						t.Fatalf("%s: param %d shares the source's storage", kind, i)
					}
				}
				got := make([]float64, cp.OutDim())
				cp.Predict1(in, got)
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("%s: prediction diverges at %d: %v vs %v", kind, i, got[i], want[i])
					}
				}
				if !bytes.Equal(saved, netBytes(t, cp)) {
					t.Fatalf("%s: saving the copy wrote different bytes than saving the source", kind)
				}

				// Train the copy, then bump every weight of it: the source
				// must not notice either.
				x, y := randBatch(r, 8, cp.InDim), randBatch(r, 8, cp.OutDim())
				if _, err := Fit(cp, x, y, nil, nil, TrainConfig{
					Epochs: 2, BatchSize: 4, Optimizer: NewAdam(0.05), Loss: MSE{}, Seed: 3,
				}); err != nil {
					t.Fatal(err)
				}
				for _, p := range cp.Params() {
					for j := range p.W.Data {
						p.W.Data[j] += 1
					}
				}
				if !reflect.DeepEqual(weightsOf(net), before) {
					t.Fatalf("%s: training or mutating the copy moved the source's weights", kind)
				}
				net.Predict1(in, got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the source predicts differently after its copy changed", kind)
				}
				cp.Predict1(in, got)
				if reflect.DeepEqual(got, want) {
					t.Fatalf("%s: changing every weight of the copy did not change its output", kind)
				}
			}
		})
	}
}

// TestSavedBytesPinned pins the model file format across commits: the
// smokes byte-diff .dlpic bundles, so a loader or layer-constructor
// change must not move one saved byte. Weights are set to exact dyadic
// values so the pin does not depend on the platform's float contraction.
func TestSavedBytesPinned(t *testing.T) {
	want := map[string]string{
		"mlp":    "f361a7667889fecf8997de53d6734cd81138cf73d049320bd6b71ad5951f50be",
		"cnn":    "b932dd574903cab1f2d289dfd95441253cf6d6a553169b874b62d1f73a18af10",
		"resmlp": "9a0e352395ffd7383f589b8bad4fea4b7cbd0612148a88674cf5293d4454aacb",
	}
	for name, net := range buildArchs(t) {
		k := 0
		for _, p := range net.Params() {
			for j := range p.W.Data {
				p.W.Data[j] = float64(k%17-8) / 16
				k++
			}
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(netBytes(t, net))); got != want[name] {
			t.Errorf("%s: saved bytes hash %s, pinned %s", name, got, want[name])
		}
	}
}

func ExampleNetwork_Summary() {
	net, _ := NewMLP(MLPConfig{InDim: 4, OutDim: 2, Hidden: 3, HiddenLayers: 1}, rng.New(1))
	fmt.Println(net.Summary())
	// Output: input(4) -> dense(4x3) -> relu -> dense(3x2)  [23 params]
}
