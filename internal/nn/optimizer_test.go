package nn

import (
	"math"
	"runtime"
	"testing"

	"dlpic/internal/rng"
	"dlpic/internal/tensor"
)

// serialAdamStep is Adam's element loop as one serial pass per
// parameter: the reference the team-run Step must match bit for bit.
// It keeps its state in slices parallel to params.
func serialAdamStep(a *Adam, t int, params []*Param, m, v [][]float64) {
	b1c := 1 - math.Pow(a.Beta1, float64(t))
	b2c := 1 - math.Pow(a.Beta2, float64(t))
	for pi, p := range params {
		for i := range p.W.Data {
			g := p.G.Data[i]
			m[pi][i] = a.Beta1*m[pi][i] + (1-a.Beta1)*g
			v[pi][i] = a.Beta2*v[pi][i] + (1-a.Beta2)*g*g
			mHat := m[pi][i] / b1c
			vHat := v[pi][i] / b2c
			p.W.Data[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}

// optParams builds parameters of several sizes — below, at and above
// the team loop's inline threshold, and odd, so For's pieces are
// uneven — with weights and gradients from seed. About a quarter of the
// gradient entries are signed zeros and a few are subnormal.
func optParams(seed uint64) []*Param {
	r := rng.New(seed)
	var ps []*Param
	for _, n := range []int{1, 61, 2048, 4099, 97 * 61} {
		p := &Param{W: tensor.New(n), G: tensor.New(n)}
		for i := range p.W.Data {
			p.W.Data[i] = r.NormFloat64()
			switch u := r.Float64(); {
			case u < 0.125:
				p.G.Data[i] = 0
			case u < 0.25:
				p.G.Data[i] = math.Copysign(0, -1)
			case u < 0.27:
				p.G.Data[i] = r.NormFloat64() * math.SmallestNonzeroFloat64 * 1e3
			default:
				p.G.Data[i] = r.NormFloat64()
			}
		}
		ps = append(ps, p)
	}
	return ps
}

// sameBits fails the test at the first element whose bits differ.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d got %x want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestOptimizerStepMatchesSerialAtAnyProcs runs Adam for several steps at GOMAXPROCS 1, 2 and 4 and requires weights and
// optimizer state bitwise equal to the serial element loops: the worker
// team splits each parameter's elements, and no element's arithmetic
// may depend on where the split falls.
func TestOptimizerStepMatchesSerialAtAnyProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	const steps = 4
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)

		got, want := optParams(5), optParams(5)
		adam := NewAdam(1e-3)
		ref := NewAdam(1e-3)
		m, v := make([][]float64, len(want)), make([][]float64, len(want))
		for i, p := range want {
			m[i], v[i] = make([]float64, p.W.Len()), make([]float64, p.W.Len())
		}
		for s := 1; s <= steps; s++ {
			adam.Step(got)
			serialAdamStep(ref, s, want, m, v)
		}
		for i := range want {
			sameBits(t, "adam weights", got[i].W.Data, want[i].W.Data)
			sameBits(t, "adam m", adam.m[got[i].W].Data, m[i])
			sameBits(t, "adam v", adam.v[got[i].W].Data, v[i])
		}
	}
}

// TestOptimizerStepAllocatesNothing: once Adam holds its state, a Step
// allocates nothing — the team loop's body is bound once, not built
// per parameter.
func TestOptimizerStepAllocatesNothing(t *testing.T) {
	o := NewAdam(1e-3)
	params := optParams(8)
	o.Step(params)
	if n := testing.AllocsPerRun(10, func() { o.Step(params) }); n != 0 {
		t.Errorf("%s: %v allocations per Step, want 0", o.Name(), n)
	}
}
