package nn

import (
	"fmt"
	"math"

	"dlpic/internal/parallel"
	"dlpic/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update. Gradients are not cleared; callers
	// (the trainer) zero them per batch.
	Step(params []*Param)
	Name() string
}

// Adam is the optimizer the paper trains with (lr = 1e-4, batch 64).
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*tensor.Tensor]*tensor.Tensor
	v map[*tensor.Tensor]*tensor.Tensor

	// The parameter Step is updating and the step's bias corrections,
	// read by body. Step binds body once, so a warm Step allocates
	// nothing.
	md, vd, w, g []float64
	b1c, b2c     float64
	body         func(s, e int)
}

// NewAdam returns Adam with the paper's learning rate by default
// (pass lr <= 0 for 1e-4) and the standard beta/epsilon constants.
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		lr = 1e-4
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return fmt.Sprintf("adam(lr=%g)", a.LR) }

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	if a.m == nil {
		a.m = make(map[*tensor.Tensor]*tensor.Tensor)
		a.v = make(map[*tensor.Tensor]*tensor.Tensor)
	}
	if a.body == nil {
		a.body = a.update
	}
	a.t++
	a.b1c = 1 - math.Pow(a.Beta1, float64(a.t))
	a.b2c = 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p.W]
		if !ok {
			m = tensor.New(p.W.Shape...)
			a.m[p.W] = m
			a.v[p.W] = tensor.New(p.W.Shape...)
		}
		a.md, a.vd, a.w, a.g = m.Data, a.v[p.W].Data, p.W.Data, p.G.Data
		parallel.For(len(a.w), a.body)
	}
}

// update is Step's element loop over [s, e) of the current parameter.
func (a *Adam) update(s, e int) {
	md, vd, w, gd := a.md, a.vd, a.w, a.g
	b1, b2, lr, eps, b1c, b2c := a.Beta1, a.Beta2, a.LR, a.Eps, a.b1c, a.b2c
	for i := s; i < e; i++ {
		g := gd[i]
		md[i] = b1*md[i] + (1-b1)*g
		vd[i] = b2*vd[i] + (1-b2)*g*g
		mHat := md[i] / b1c
		vHat := vd[i] / b2c
		w[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}

// optimizerState is the serializable snapshot of an optimizer's
// per-parameter state, with slot vectors in Params() order (the order
// is a pure function of the network architecture, so a snapshot taken
// against one Network restores against any architecturally identical
// one). Fields are exported for gob; the type itself stays package
// private — it only ever crosses a training checkpoint file.
type optimizerState struct {
	// Kind names the optimizer implementation ("adam"); restore
	// refuses a mismatched kind.
	Kind string
	// Step is the global step counter (Adam's bias-correction t).
	Step int
	// Vecs holds the per-parameter state vectors: two per parameter for
	// Adam (first and second moment, interleaved m0,v0,m1,v1,...).
	Vecs [][]float64
}

// optimizerCheckpointer is implemented by optimizers whose state can
// round-trip through a training checkpoint. Fit refuses to checkpoint
// with an optimizer that does not implement it — silently dropping
// moment estimates would make a resumed fit diverge from an
// uninterrupted one.
type optimizerCheckpointer interface {
	captureState(params []*Param) optimizerState
	restoreState(params []*Param, st optimizerState) error
}

// checkKind validates the snapshot header shared by all restores.
func (st optimizerState) checkKind(kind string, params []*Param, vecsPerParam int) error {
	if st.Kind != kind {
		return fmt.Errorf("nn: checkpoint optimizer state is %q, configured optimizer is %q", st.Kind, kind)
	}
	if len(st.Vecs) != vecsPerParam*len(params) {
		return fmt.Errorf("nn: %s state has %d vectors, network wants %d", kind, len(st.Vecs), vecsPerParam*len(params))
	}
	return nil
}

// stateVec copies the per-parameter state tensor keyed by w (zeros when
// the optimizer never touched it, which cannot happen after a full
// epoch but keeps capture total).
func stateVec(m map[*tensor.Tensor]*tensor.Tensor, w *tensor.Tensor) []float64 {
	if t, ok := m[w]; ok {
		return append([]float64(nil), t.Data...)
	}
	return make([]float64, w.Len())
}

// restoreVec validates one snapshot vector and installs it as a state
// tensor shaped like w.
func restoreVec(m map[*tensor.Tensor]*tensor.Tensor, w *tensor.Tensor, vec []float64, kind string, i int) error {
	if len(vec) != w.Len() {
		return fmt.Errorf("nn: %s state vector %d has %d entries, parameter wants %d", kind, i, len(vec), w.Len())
	}
	t := tensor.New(w.Shape...)
	copy(t.Data, vec)
	m[w] = t
	return nil
}

// captureState implements optimizerCheckpointer: the step counter plus
// interleaved first/second-moment vectors, Params() order.
func (a *Adam) captureState(params []*Param) optimizerState {
	st := optimizerState{Kind: "adam", Step: a.t, Vecs: make([][]float64, 0, 2*len(params))}
	for _, p := range params {
		st.Vecs = append(st.Vecs, stateVec(a.m, p.W), stateVec(a.v, p.W))
	}
	return st
}

// restoreState implements optimizerCheckpointer.
func (a *Adam) restoreState(params []*Param, st optimizerState) error {
	if err := st.checkKind("adam", params, 2); err != nil {
		return err
	}
	if st.Step < 0 {
		return fmt.Errorf("nn: adam state has negative step %d", st.Step)
	}
	m := make(map[*tensor.Tensor]*tensor.Tensor, len(params))
	v := make(map[*tensor.Tensor]*tensor.Tensor, len(params))
	for i, p := range params {
		if err := restoreVec(m, p.W, st.Vecs[2*i], "adam", 2*i); err != nil {
			return err
		}
		if err := restoreVec(v, p.W, st.Vecs[2*i+1], "adam", 2*i+1); err != nil {
			return err
		}
	}
	a.t, a.m, a.v = st.Step, m, v
	return nil
}

// OptimizerDesc fingerprints the full hyper-parameter set of an
// optimizer for checkpoint and bundle identity checks — unlike Name,
// it covers every constant the update rule uses (Adam's betas and
// epsilon drift the trajectory just as surely as the learning rate).
func OptimizerDesc(o Optimizer) string {
	switch v := o.(type) {
	case *Adam:
		return fmt.Sprintf("adam(lr=%g,b1=%g,b2=%g,eps=%g)", v.LR, v.Beta1, v.Beta2, v.Eps)
	default:
		return fmt.Sprintf("%T|%s", o, o.Name())
	}
}

// ClipGradNorm scales all gradients so their global L2 norm does not
// exceed maxNorm; returns the pre-clip norm. No-op for maxNorm <= 0.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.G.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / norm
		for _, p := range params {
			p.G.Scale(scale)
		}
	}
	return norm
}
