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
// The package provides three pic.FieldMethod implementations:
//
//   - NNSolver — the paper's method, wrapping a trained internal/nn
//     network plus the input normalizer fixed at training time;
//   - OracleSolver — a "perfect DL solver": it consumes exactly the same
//     binned histogram but recovers the field through the spatial
//     marginal and a Poisson solve. It isolates the error introduced by
//     the cycle structure (binning information loss) from the error
//     introduced by learning, and is the reference the tests use;
//   - HybridSolver — a convex blend of a learned solver and the oracle,
//     used by the ablation benchmarks.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"dlpic/internal/fft"
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
	// ClampAbs, if positive, clamps predicted field values to
	// [-ClampAbs, +ClampAbs] as an out-of-distribution guard. Zero
	// disables clamping (the paper applies none).
	ClampAbs float64
	// SmoothModes, if positive, low-passes the predicted field to the
	// first SmoothModes Fourier modes. Prediction error on
	// out-of-distribution states is broadband, while the physical field
	// content of the two-stream problem lives in the first few modes;
	// the filter suppresses the random-walk heating that noise injects
	// (an extension beyond the paper, disabled by default).
	SmoothModes int
	smoothPlan  *fft.Plan
	smoothSpec  []complex128
	// Inference32 routes predictions through the float32 inference path
	// (nn.PredictBatch32: converted weights, half the memory traffic).
	// Opt-in: it changes results within the drift bounds measured by
	// nn.MeasureDrift32, so campaign digests are only stable against
	// runs using the same precision. Supported for dense stacks only;
	// ComputeField reports the conversion error for other nets.
	Inference32 bool

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

// Name implements pic.FieldMethod.
func (s *NNSolver) Name() string { return "dl-mlp" }

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
	if err := s.predict(e); err != nil {
		return err
	}
	if s.SmoothModes > 0 {
		s.lowPass(e)
	}
	if s.ClampAbs > 0 {
		for i, v := range e {
			if v > s.ClampAbs {
				e[i] = s.ClampAbs
			} else if v < -s.ClampAbs {
				e[i] = -s.ClampAbs
			}
		}
	}
	for i, v := range e {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: network produced non-finite E[%d] = %v", i, v)
		}
	}
	s.Predictions++
	return nil
}

// predict evaluates the network on the prepared s.in, honouring the
// precision selection. Both paths are batch-1 calls on shared solver
// scratch — the Clone-per-scenario ownership rule is unchanged.
func (s *NNSolver) predict(e []float64) error {
	if s.Inference32 {
		return s.Net.PredictBatch32(1, s.in, e)
	}
	s.Net.Predict1(s.in, e)
	return nil
}

// lowPass zeroes every Fourier mode above SmoothModes in place.
func (s *NNSolver) lowPass(e []float64) {
	n := len(e)
	if s.smoothPlan == nil || s.smoothPlan.Len() != n {
		s.smoothPlan = fft.MustPlan(n)
		s.smoothSpec = make([]complex128, n)
	}
	s.smoothPlan.ForwardReal(s.smoothSpec, e)
	for k := 1; k < n; k++ {
		m := k
		if m > n/2 {
			m = n - k
		}
		if m > s.SmoothModes {
			s.smoothSpec[k] = 0
		}
	}
	s.smoothPlan.InverseReal(e, s.smoothSpec)
}

// Clone returns an independent copy of the solver: deep-copied network,
// fresh histogram and input scratch, same binning spec, normalizer and
// post-processing options. A sweep that runs the DL method on the
// per-call path needs one clone per scenario, because a solver's
// network scratch makes sharing an instance across concurrently
// stepping simulations a data race; the batched inference server
// (internal/batch) is the alternative that shares one network safely.
func (s *NNSolver) Clone() (*NNSolver, error) {
	net, err := nn.Clone(s.Net)
	if err != nil {
		return nil, err
	}
	c, err := NewNNSolver(net, s.Spec, s.Norm, net.OutDim())
	if err != nil {
		return nil, err
	}
	c.ClampAbs = s.ClampAbs
	c.SmoothModes = s.SmoothModes
	c.Inference32 = s.Inference32
	return c, nil
}

// PredictFromHistogram runs the solver on a raw histogram vector
// (un-normalized bin counts), writing the field into e. Exposed for the
// evaluation harness.
func (s *NNSolver) PredictFromHistogram(histData, e []float64) error {
	if len(histData) != s.Spec.Size() {
		return fmt.Errorf("core: histogram length %d, want %d", len(histData), s.Spec.Size())
	}
	s.Norm.Apply(s.in, histData)
	return s.predict(e)
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
// Hybrid solver

// HybridSolver blends a learned solver with the oracle:
// E = alpha * E_nn + (1 - alpha) * E_oracle. alpha = 1 is the paper's
// method; alpha = 0 is the oracle. Intermediate values quantify how much
// learned error the PIC loop tolerates (ablation).
type HybridSolver struct {
	NN     *NNSolver
	Oracle *OracleSolver
	Alpha  float64

	eNN, eOr []float64
}

// NewHybridSolver validates and builds the blend.
func NewHybridSolver(nnSolver *NNSolver, oracle *OracleSolver, alpha float64, cells int) (*HybridSolver, error) {
	if nnSolver == nil || oracle == nil {
		return nil, fmt.Errorf("core: hybrid needs both solvers")
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("core: hybrid alpha %v outside [0,1]", alpha)
	}
	return &HybridSolver{
		NN: nnSolver, Oracle: oracle, Alpha: alpha,
		eNN: make([]float64, cells), eOr: make([]float64, cells),
	}, nil
}

// Name implements pic.FieldMethod.
func (s *HybridSolver) Name() string { return fmt.Sprintf("dl-hybrid(%.2f)", s.Alpha) }

// ComputeField implements pic.FieldMethod.
func (s *HybridSolver) ComputeField(sim *pic.Simulation, e []float64) error {
	if err := s.NN.ComputeField(sim, s.eNN); err != nil {
		return err
	}
	if err := s.Oracle.ComputeField(sim, s.eOr); err != nil {
		return err
	}
	for i := range e {
		e[i] = s.Alpha*s.eNN[i] + (1-s.Alpha)*s.eOr[i]
	}
	return nil
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
