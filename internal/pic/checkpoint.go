package pic

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"dlpic/internal/fft"
	"dlpic/internal/grid"
	"dlpic/internal/particle"
)

// Checkpointing serializes the complete dynamical state of a simulation
// (configuration, particles, fields, clock) so long runs can be split
// across processes. The field method is NOT part of the checkpoint — it
// is code plus (for the DL method) a separately persisted model bundle —
// so the caller supplies it again at restore time, exactly as at New.

type checkpointFile struct {
	Version      int
	Cfg          Config
	X, V         []float64
	Charge, Mass float64
	Rho, Phi, E  []float64
	StepN        int
	Time         float64
}

const checkpointVersion = 1

// init pins the process-global gob type ids of the types this package
// serializes by encoding zero values to io.Discard in fixed order at
// package init (the internal/nn checkpoint lesson: gob assigns ids at
// a type's first encode or decode, so without pinning, checkpoint
// bytes — and the ConfigKey fingerprints hashed from Config's gob
// encoding, which key campaign journals and bundle stores — would
// depend on what else the process (de)serialized first).
func init() {
	enc := gob.NewEncoder(io.Discard)
	_ = enc.Encode(Config{})
	_ = enc.Encode(checkpointFile{})
}

// SaveCheckpoint writes the full simulation state to w.
//
//deadcode:keep O: checkpointFile's init-time gob pin fixes later gob type ids (golden bundle bytes); O removes both
func (s *Simulation) SaveCheckpoint(w io.Writer) error {
	f := checkpointFile{
		Version: checkpointVersion,
		Cfg:     s.Cfg,
		X:       s.P.X, V: s.P.V,
		Charge: s.P.Charge, Mass: s.P.Mass,
		Rho: s.Rho, Phi: s.Phi, E: s.E,
		StepN: s.stepN, Time: s.time,
	}
	return gob.NewEncoder(w).Encode(f)
}

// LoadCheckpoint restores a simulation from r with the given field
// method (nil selects the traditional deposit+Poisson method). The
// restored run continues bit-identically to the original: velocities are
// already leapfrog-staggered, so no de-stagger kick is applied.
//
//deadcode:keep O: checkpointFile's init-time gob pin fixes later gob type ids (golden bundle bytes); O removes both
func LoadCheckpoint(r io.Reader, method FieldMethod) (*Simulation, error) {
	var f checkpointFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("pic: decode checkpoint: %w", err)
	}
	if f.Version != checkpointVersion {
		return nil, fmt.Errorf("pic: unsupported checkpoint version %d", f.Version)
	}
	if err := f.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("pic: checkpoint config: %w", err)
	}
	if len(f.X) != len(f.V) {
		return nil, fmt.Errorf("pic: checkpoint particle arrays disagree: %d vs %d", len(f.X), len(f.V))
	}
	cells := f.Cfg.Cells
	if len(f.Rho) != cells || len(f.Phi) != cells || len(f.E) != cells {
		return nil, fmt.Errorf("pic: checkpoint field arrays wrong length")
	}
	g, err := grid.New(cells, f.Cfg.Length)
	if err != nil {
		return nil, err
	}
	if method == nil {
		method, err = NewTraditionalField(f.Cfg, g)
		if err != nil {
			return nil, err
		}
	} else if err := checkMethodOptions(f.Cfg, method); err != nil {
		return nil, err
	}
	sim := &Simulation{
		Cfg: f.Cfg,
		G:   g,
		P: &particle.Population{
			X: f.X, V: f.V,
			Charge: f.Charge, Mass: f.Mass,
			QOverM: f.Cfg.QOverM,
		},
		Rho: f.Rho, Phi: f.Phi, E: f.E,
		Ep:     make([]float64, len(f.X)),
		IonRho: f.Cfg.Wp * f.Cfg.Wp * f.Cfg.Eps0,
		method: method,
		plan:   fft.MustPlan(cells),
		stepN:  f.StepN,
		time:   f.Time,
	}
	return sim, nil
}

// SaveCheckpointFile saves to path.
//
//deadcode:keep O: checkpointFile's init-time gob pin fixes later gob type ids (golden bundle bytes); O removes both
func (s *Simulation) SaveCheckpointFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.SaveCheckpoint(f); err != nil {
		return err
	}
	return f.Close()
}

// ConfigKey returns a short deterministic fingerprint of a Config,
// derived from the same gob serialization the checkpoint machinery
// uses. Two configs share a key iff they gob-encode identically, so
// any change to the physics (box, particle counts, seeds, solver
// choices) changes the key. Note that gob's type descriptor covers
// every struct field, so adding a field to Config — even one every
// config leaves at its zero value — changes all keys and invalidates
// existing campaign journals; that is the safe direction (stale
// records re-run rather than restore), but it means journals do not
// survive Config schema changes. Campaign journals (internal/campaign)
// key per-scenario records with it.
func ConfigKey(cfg Config) (string, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cfg); err != nil {
		return "", fmt.Errorf("pic: fingerprint config: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8]), nil
}

// LoadCheckpointFile loads from path.
//
//deadcode:keep O: checkpointFile's init-time gob pin fixes later gob type ids (golden bundle bytes); O removes both
func LoadCheckpointFile(path string, method FieldMethod) (*Simulation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCheckpoint(f, method)
}
