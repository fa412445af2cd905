// Package core implements the paper's primary contribution: the DL-based
// PIC method of §III (Fig. 2). The traditional field-solver stage —
// charge deposition followed by a Poisson solve — is replaced by two new
// steps executed every cycle:
//
//  1. interpolate the particles onto a 2D phase-space grid (a histogram
//     of positions and velocities), and
//  2. predict the grid electric field from that histogram with a neural
//     network trained offline on traditional PIC data.
//
// The package provides two pic.FieldMethod implementations:
//
//   - NNSolver — the paper's method, wrapping a trained internal/nn
//     network plus the input normalizer fixed at training time. It is
//     the one DL field-solve pipeline: the per-call path, bundle-loaded
//     solvers and the batched method of internal/batch (an NNSolver
//     whose prediction stage is a shared inference server, see
//     WithPredict) all run its ComputeField;
//   - OracleSolver — a "perfect DL solver": it consumes exactly the same
//     binned histogram but recovers the field through the spatial
//     marginal and a Poisson solve. It isolates the error introduced by
//     the cycle structure (binning information loss) from the error
//     introduced by learning, and is the reference the tests use.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"dlpic/internal/grid"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/poisson"
)

// NNSolver predicts the grid electric field from the binned electron
// phase space with a trained network. It implements pic.FieldMethod.
type NNSolver struct {
	// Net maps normalized histograms (Spec.Size() inputs) to E fields
	// (cells outputs).
	Net *nn.Network
	// Spec is the phase-space binning used at training time.
	Spec phasespace.GridSpec
	// Norm is the input normalizer fitted on the training corpus
	// (paper Eq. 5).
	Norm phasespace.Normalizer

	hist *phasespace.Hist
	in   []float64
	// predict, when set by WithPredict, replaces Net.Predict1 as the
	// prediction stage.
	predict func(in, out []float64) error

	// Predictions counts ComputeField invocations (diagnostics).
	Predictions int
}

// NewNNSolver validates shapes and builds the solver.
func NewNNSolver(net *nn.Network, spec phasespace.GridSpec, norm phasespace.Normalizer, cells int) (*NNSolver, error) {
	if net == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if net.InDim != spec.Size() {
		return nil, fmt.Errorf("core: network input %d != phase-space size %d", net.InDim, spec.Size())
	}
	if net.OutDim() != cells {
		return nil, fmt.Errorf("core: network output %d != grid cells %d", net.OutDim(), cells)
	}
	hist, err := phasespace.NewHist(spec)
	if err != nil {
		return nil, err
	}
	return &NNSolver{
		Net: net, Spec: spec, Norm: norm,
		hist: hist, in: make([]float64, spec.Size()),
	}, nil
}

// Name implements pic.FieldMethod: "dl-cnn" for a network with
// convolution layers, "dl-mlp" otherwise.
func (s *NNSolver) Name() string {
	for _, l := range s.Net.Layers {
		if _, ok := l.(*nn.Conv2D); ok {
			return "dl-cnn"
		}
	}
	return "dl-mlp"
}

// ComputeField implements pic.FieldMethod: bin, normalize, predict.
//
// The bundle's binning box must be the simulation's: positions of a
// longer box would all clamp into the last histogram column.
func (s *NNSolver) ComputeField(sim *pic.Simulation, e []float64) error {
	if s.Spec.L != sim.Cfg.Length {
		return fmt.Errorf("core: model binned over box length %v, simulation box is %v", s.Spec.L, sim.Cfg.Length)
	}
	if err := s.hist.Bin(sim.P.X, sim.P.V); err != nil {
		return err
	}
	s.Norm.Apply(s.in, s.hist.Data)
	if s.predict == nil {
		s.Net.Predict1(s.in, e)
	} else if err := s.predict(s.in, e); err != nil {
		return err
	}
	for i, v := range e {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: network produced non-finite E[%d] = %v", i, v)
		}
	}
	s.Predictions++
	return nil
}

// Clone returns an independent per-call copy of the solver:
// deep-copied network, fresh histogram and input scratch, same binning
// spec and normalizer. A sweep that runs the DL method on the per-call
// path needs one clone per scenario, because a solver's network scratch
// makes sharing an instance across concurrently stepping simulations a
// data race; the batched inference server (internal/batch) is the
// alternative that shares one network safely.
func (s *NNSolver) Clone() (*NNSolver, error) {
	net, err := nn.Clone(s.Net)
	if err != nil {
		return nil, err
	}
	return NewNNSolver(net, s.Spec, s.Norm, net.OutDim())
}

// WithPredict returns a solver for a grid of the given cell count with
// s's network, binning spec and normalizer, fresh histogram and input
// scratch, and predict as its prediction stage instead of Net.Predict1:
// predict receives the normalized histogram row and writes the field.
// The network is shared, not copied, and the returned solver never
// evaluates it; internal/batch uses this to run one scenario's field
// solves through a shared inference server.
func (s *NNSolver) WithPredict(cells int, predict func(in, out []float64) error) (*NNSolver, error) {
	c, err := NewNNSolver(s.Net, s.Spec, s.Norm, cells)
	if err != nil {
		return nil, err
	}
	c.predict = predict
	return c, nil
}

// ---------------------------------------------------------------------------
// Oracle solver

// OracleSolver consumes the same phase-space histogram as the learned
// solver but computes the field exactly: the histogram's spatial
// marginal is converted to a charge density, the neutralizing background
// is added, and the periodic Poisson problem is solved spectrally.
// Any growth-rate or conservation error it exhibits is attributable to
// the DL-PIC *cycle* (the binning step), not to learning.
type OracleSolver struct {
	Spec phasespace.GridSpec

	hist    *phasespace.Hist
	g       *grid.Grid
	solver  *poisson.Spectral
	rho     []float64
	scratch []float64
}

// NewOracleSolver builds the oracle for a PIC configuration. The
// phase-space grid must have exactly one position bin per PIC cell.
func NewOracleSolver(cfg pic.Config, spec phasespace.GridSpec) (*OracleSolver, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.NX != cfg.Cells {
		return nil, fmt.Errorf("core: oracle needs NX == Cells (%d != %d)", spec.NX, cfg.Cells)
	}
	if spec.L != cfg.Length {
		return nil, fmt.Errorf("core: oracle phase-space box %v != PIC box %v", spec.L, cfg.Length)
	}
	g, err := grid.New(cfg.Cells, cfg.Length)
	if err != nil {
		return nil, err
	}
	hist, err := phasespace.NewHist(spec)
	if err != nil {
		return nil, err
	}
	return &OracleSolver{
		Spec: spec, hist: hist, g: g,
		solver:  poisson.NewSpectral(g, cfg.Eps0),
		rho:     make([]float64, cfg.Cells),
		scratch: make([]float64, cfg.Cells),
	}, nil
}

// Name implements pic.FieldMethod.
func (s *OracleSolver) Name() string { return "dl-oracle" }

// ComputeField implements pic.FieldMethod.
func (s *OracleSolver) ComputeField(sim *pic.Simulation, e []float64) error {
	if err := s.hist.Bin(sim.P.X, sim.P.V); err != nil {
		return err
	}
	if err := s.hist.SpatialDensity(s.rho); err != nil {
		return err
	}
	// counts per bin -> charge density: q * counts / dx.
	scale := sim.P.Charge / s.g.Dx()
	for i := range s.rho {
		s.rho[i] = s.rho[i]*scale + sim.IonRho
	}
	return poisson.SolveE(s.solver, s.g, e, s.rho, s.scratch)
}

// ---------------------------------------------------------------------------
// Model bundle persistence

// modelBundle is the on-disk representation of a deployable DL field
// solver: network weights plus the preprocessing contract.
type modelBundle struct {
	Version  int
	Spec     phasespace.GridSpec
	Norm     phasespace.Normalizer
	Cells    int
	NetBytes []byte
}

const bundleVersion = 1

// init pins the bundle's process-global gob type id (see the matching
// init in internal/nn): encoding a zero bundle at package init makes
// SaveModel's output byte-identical across processes regardless of
// what they gob-encoded or decoded before — the property the CI
// smoke's byte-diff of resumed vs uninterrupted bundles relies on.
func init() {
	_ = gob.NewEncoder(io.Discard).Encode(modelBundle{})
}

// SaveModel writes a complete, reloadable solver bundle.
func SaveModel(s *NNSolver, cells int, w io.Writer) error {
	var netBuf bytes.Buffer
	if err := nn.Save(s.Net, &netBuf); err != nil {
		return err
	}
	b := modelBundle{
		Version: bundleVersion, Spec: s.Spec, Norm: s.Norm, Cells: cells,
		NetBytes: netBuf.Bytes(),
	}
	return gob.NewEncoder(w).Encode(b)
}

// LoadModel reads a bundle saved with SaveModel.
func LoadModel(r io.Reader) (*NNSolver, error) {
	var b modelBundle
	if err := gob.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("core: decode model bundle: %w", err)
	}
	if b.Version != bundleVersion {
		return nil, fmt.Errorf("core: unsupported bundle version %d", b.Version)
	}
	net, err := nn.Load(bytes.NewReader(b.NetBytes))
	if err != nil {
		return nil, err
	}
	return NewNNSolver(net, b.Spec, b.Norm, b.Cells)
}

// SaveModelFile saves the bundle to path.
func SaveModelFile(s *NNSolver, cells int, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := SaveModel(s, cells, f); err != nil {
		return err
	}
	return f.Close()
}

// LoadModelFile loads a bundle from path.
func LoadModelFile(path string) (*NNSolver, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}
