package nn_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dlpic/internal/nn"
	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// ExampleNetwork_PredictBatch stacks several field-solve inputs through
// one forward pass. Each output row is bit-identical to the Predict1
// result for the same input row — the property that lets the batched
// inference server mix scenarios freely without changing any of them.
func ExampleNetwork_PredictBatch() {
	net, err := nn.NewMLP(nn.MLPConfig{InDim: 16 * 8, OutDim: 16, Hidden: 12, HiddenLayers: 2}, rng.New(3))
	if err != nil {
		fmt.Println("build failed:", err)
		return
	}
	const batch = 3
	in := make([]float64, batch*net.InDim)
	for i := range in {
		in[i] = float64(i%7) / 7
	}
	outDim := net.OutDim()
	batched := make([]float64, batch*outDim)
	net.PredictBatch(batch, in, batched)

	identical := true
	row := make([]float64, outDim)
	for r := 0; r < batch; r++ {
		net.Predict1(in[r*net.InDim:(r+1)*net.InDim], row)
		for j := range row {
			if row[j] != batched[r*outDim+j] {
				identical = false
			}
		}
	}
	fmt.Printf("%d rows of %d outputs; bit-identical to Predict1: %v\n", batch, outDim, identical)
	// Output:
	// 3 rows of 16 outputs; bit-identical to Predict1: true
}

// ExampleResumeFit checkpoints a tiny fit every epoch, simulates a kill
// at half the epoch budget (training to half and stopping leaves
// exactly the checkpoint a kill would), resumes to the full budget, and
// verifies the resumed weights are byte-identical to an uninterrupted
// fit's — the training-level analogue of resuming a campaign. The
// corpus is synthetic: 24 rows of a 16x8 phase space mapped to 16
// cells.
func ExampleResumeFit() {
	// Not a PIC corpus: importing the PIC packages would add their gob
	// type registrations to this test binary, renumber the types nn.Save
	// writes, and move TestSavedBytesPinned's hashes.
	r := rng.New(1)
	x, y := tensor.New(24, 16*8), tensor.New(24, 16)
	x.RandomNormal(r, 1)
	y.RandomNormal(r, 1)
	dir, err := os.MkdirTemp("", "dlpic-ckpt")
	if err != nil {
		fmt.Println("tempdir failed:", err)
		return
	}
	defer os.RemoveAll(dir)

	build := func() (*nn.Network, error) {
		return nn.NewMLP(nn.MLPConfig{InDim: 16 * 8, OutDim: 16, Hidden: 16, HiddenLayers: 3}, rng.New(2))
	}
	cfg := func(epochs int, path string) nn.TrainConfig {
		return nn.TrainConfig{
			Epochs: epochs, BatchSize: 8, Optimizer: nn.NewAdam(1e-3),
			Loss: nn.MSE{}, Seed: 3,
			Checkpoint: nn.Checkpoint{Path: path, Every: 1},
		}
	}
	const epochs = 6
	netBytes := func(net *nn.Network) string {
		var buf strings.Builder
		if err := nn.Save(net, &buf); err != nil {
			return err.Error()
		}
		return buf.String()
	}

	// Uninterrupted reference fit.
	ref, err := build()
	if err != nil {
		fmt.Println("build failed:", err)
		return
	}
	if _, err := nn.Fit(ref, x, y, nil, nil, cfg(epochs, filepath.Join(dir, "ref.ckpt"))); err != nil {
		fmt.Println("fit failed:", err)
		return
	}

	// "Killed" fit: same configuration, stopped after 3 epochs.
	killed, err := build()
	if err != nil {
		fmt.Println("build failed:", err)
		return
	}
	ckpt := filepath.Join(dir, "killed.ckpt")
	if _, err := nn.Fit(killed, x, y, nil, nil, cfg(epochs/2, ckpt)); err != nil {
		fmt.Println("fit failed:", err)
		return
	}

	// Resume to the full budget from the checkpoint alone.
	resumed, hist, err := nn.ResumeFit(x, y, nil, nil, cfg(epochs, ckpt))
	if err != nil {
		fmt.Println("resume failed:", err)
		return
	}
	fmt.Printf("%d epochs total; resumed bit-identical to uninterrupted: %v\n",
		len(hist.Epochs), netBytes(resumed) == netBytes(ref))
	// Output:
	// 6 epochs total; resumed bit-identical to uninterrupted: true
}
