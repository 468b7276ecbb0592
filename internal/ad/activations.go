package ad

import (
	"math"

	"fedomd/internal/mat"
)

// Sigmoid records c = 1/(1+e^{−a}) element-wise.
// Gradient: c·(1−c) ⊙ upstream, fused into the grad buffer.
func (t *Tape) Sigmoid(a *Node) *Node {
	out := t.op(a.Value.Rows(), a.Value.Cols(), a)
	mat.ApplyInto(out.Value, a.Value, func(x float64) float64 {
		if x >= 0 {
			return 1 / (1 + math.Exp(-x))
		}
		// Equivalent form that avoids overflow for very negative x.
		e := math.Exp(x)
		return e / (1 + e)
	})
	out.backward = func() {
		gd := a.grad().Data()
		og := out.Grad.Data()
		for i, s := range out.Value.Data() {
			gd[i] += og[i] * s * (1 - s)
		}
	}
	return out
}

// Tanh records c = tanh(a) element-wise.
// Gradient: (1−c²) ⊙ upstream, fused into the grad buffer.
func (t *Tape) Tanh(a *Node) *Node {
	out := t.op(a.Value.Rows(), a.Value.Cols(), a)
	mat.ApplyInto(out.Value, a.Value, math.Tanh)
	out.backward = func() {
		gd := a.grad().Data()
		og := out.Grad.Data()
		for i, s := range out.Value.Data() {
			gd[i] += og[i] * (1 - s*s)
		}
	}
	return out
}

// LeakyReLU records c = max(a, slope·a) for 0 ≤ slope < 1.
func (t *Tape) LeakyReLU(a *Node, slope float64) *Node {
	out := t.op(a.Value.Rows(), a.Value.Cols(), a)
	mat.ApplyInto(out.Value, a.Value, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return slope * x
	})
	out.backward = func() {
		gd := a.grad().Data()
		og := out.Grad.Data()
		for i, x := range a.Value.Data() {
			if x > 0 {
				gd[i] += og[i]
			} else {
				gd[i] += og[i] * slope
			}
		}
	}
	return out
}
