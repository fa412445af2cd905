package nn

import (
	"fmt"
	"math"

	"dlpic/internal/tensor"
)

// Loss scores a batch of predictions against targets and produces the
// gradient of the mean loss with respect to the predictions.
type Loss interface {
	// ForwardShard returns the scalar loss of a shard of a larger
	// minibatch and writes dL/dpred into grad (same shape as pred):
	// pred, target and grad hold only the shard's rows, while totalRows
	// is the full batch's row count (pred.Rows() scores a whole batch).
	// Both the written gradients and the returned loss contribution are
	// normalized by the full batch size, so (a) each row's gradient is
	// bit-identical to the one the whole-batch call would write for that
	// row, and (b) summing the contributions of disjoint shards yields
	// the full-batch loss. This is the seam the data-parallel training
	// engine shards backpropagation through.
	ForwardShard(pred, target, grad *tensor.Tensor, totalRows int) float64
	Name() string
}

func checkLossShapes(pred, target, grad *tensor.Tensor) {
	if !tensor.SameShape(pred, target) || !tensor.SameShape(pred, grad) {
		panic(fmt.Sprintf("nn: loss shape mismatch pred=%v target=%v grad=%v",
			pred.Shape, target.Shape, grad.Shape))
	}
}

// MSE is the mean squared error over all elements.
type MSE struct{}

// Name implements Loss.
func (MSE) Name() string { return "mse" }

// ForwardShard implements Loss.
func (MSE) ForwardShard(pred, target, grad *tensor.Tensor, totalRows int) float64 {
	checkLossShapes(pred, target, grad)
	n := float64(totalRows * pred.Cols())
	var sum float64
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		sum += d * d
		grad.Data[i] = 2 * d / n
	}
	return sum / n
}

// MAE is the mean absolute error (the paper's Table-I metric, usable as
// a training loss too). The subgradient at zero is taken as 0.
type MAE struct{}

// Name implements Loss.
func (MAE) Name() string { return "mae" }

// ForwardShard implements Loss.
func (MAE) ForwardShard(pred, target, grad *tensor.Tensor, totalRows int) float64 {
	checkLossShapes(pred, target, grad)
	n := float64(totalRows * pred.Cols())
	var sum float64
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		sum += math.Abs(d)
		switch {
		case d > 0:
			grad.Data[i] = 1 / n
		case d < 0:
			grad.Data[i] = -1 / n
		default:
			grad.Data[i] = 0
		}
	}
	return sum / n
}

// Huber is the smooth-L1 loss with threshold Delta.
type Huber struct{ Delta float64 }

// Name implements Loss.
func (h Huber) Name() string { return fmt.Sprintf("huber(%g)", h.Delta) }

// ForwardShard implements Loss.
func (h Huber) ForwardShard(pred, target, grad *tensor.Tensor, totalRows int) float64 {
	checkLossShapes(pred, target, grad)
	delta := h.Delta
	if delta <= 0 {
		delta = 1
	}
	n := float64(totalRows * pred.Cols())
	var sum float64
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		if a := math.Abs(d); a <= delta {
			sum += 0.5 * d * d
			grad.Data[i] = d / n
		} else {
			sum += delta * (a - 0.5*delta)
			if d > 0 {
				grad.Data[i] = delta / n
			} else {
				grad.Data[i] = -delta / n
			}
		}
	}
	return sum / n
}

// PhysicsMSE is the physics-informed loss of the paper's §VII
// discussion: the data term (MSE) plus two physics penalties derived
// from the electrostatic field equations on the periodic grid,
//
//   - Gauss consistency: the centered difference dE/dx of the prediction
//     must match that of the target (equivalently, the implied charge
//     densities must agree: eps0 dE/dx = rho), weighted by LambdaDiv;
//   - Neutrality: a periodic neutral plasma has zero mean field, so the
//     per-sample mean of the prediction is penalized, weighted by
//     LambdaMean.
//
// Rows of the batch are field samples on a uniform periodic grid of
// spacing Dx.
type PhysicsMSE struct {
	Dx         float64
	LambdaDiv  float64
	LambdaMean float64
}

// Name implements Loss.
func (p PhysicsMSE) Name() string {
	return fmt.Sprintf("physics-mse(div=%g,mean=%g)", p.LambdaDiv, p.LambdaMean)
}

// ForwardShard implements Loss. Every penalty is per-sample, so a
// shard's rows contribute independently; only the normalizations use
// the full batch size.
func (p PhysicsMSE) ForwardShard(pred, target, grad *tensor.Tensor, totalRows int) float64 {
	checkLossShapes(pred, target, grad)
	if p.Dx <= 0 {
		panic("nn: PhysicsMSE requires positive Dx")
	}
	rows, cols := pred.Shape[0], pred.Shape[1]
	n := float64(totalRows * cols)
	// Data term.
	var loss float64
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += d * d / n
		grad.Data[i] = 2 * d / n
	}
	inv2dx := 1 / (2 * p.Dx)
	// Physics terms, per sample.
	r := make([]float64, cols) // divergence residual
	for s := 0; s < rows; s++ {
		pr := pred.Data[s*cols : (s+1)*cols]
		tr := target.Data[s*cols : (s+1)*cols]
		gr := grad.Data[s*cols : (s+1)*cols]
		if p.LambdaDiv > 0 {
			// r_j = D(pred)_j - D(target)_j, centered periodic difference.
			for j := 0; j < cols; j++ {
				jp := j + 1
				if jp == cols {
					jp = 0
				}
				jm := j - 1
				if jm < 0 {
					jm = cols - 1
				}
				r[j] = ((pr[jp] - pr[jm]) - (tr[jp] - tr[jm])) * inv2dx
			}
			for _, v := range r {
				loss += p.LambdaDiv * v * v / n
			}
			// d/dpred_j of sum r^2: D is antisymmetric, so the adjoint is
			// -D: grad_j += lambda * 2/n * (r_{j-1} - r_{j+1}) * inv2dx.
			for j := 0; j < cols; j++ {
				jp := j + 1
				if jp == cols {
					jp = 0
				}
				jm := j - 1
				if jm < 0 {
					jm = cols - 1
				}
				gr[j] += p.LambdaDiv * 2 / n * (r[jm] - r[jp]) * inv2dx
			}
		}
		if p.LambdaMean > 0 {
			var m float64
			for _, v := range pr {
				m += v
			}
			m /= float64(cols)
			loss += p.LambdaMean * m * m / float64(totalRows)
			gm := p.LambdaMean * 2 * m / (float64(totalRows) * float64(cols))
			for j := range gr {
				gr[j] += gm
			}
		}
	}
	return loss
}
