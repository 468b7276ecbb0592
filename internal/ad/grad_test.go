package ad

import (
	"math"
	"math/rand"
	"testing"

	"fedomd/internal/mat"
	"fedomd/internal/sparse"
)

// checkGrad verifies the autodiff gradient of build against central finite
// differences. build must construct the graph from fresh param nodes each
// call so perturbations to the underlying matrices are visible.
func checkGrad(t *testing.T, name string, params []*mat.Dense, build func(tp *Tape, ps []*Node) *Node) {
	t.Helper()
	eval := func() (float64, []*mat.Dense) {
		tp := NewTape()
		nodes := make([]*Node, len(params))
		for i, p := range params {
			nodes[i] = tp.Param(p)
		}
		loss := build(tp, nodes)
		if err := tp.Backward(loss); err != nil {
			t.Fatalf("%s: backward: %v", name, err)
		}
		grads := make([]*mat.Dense, len(params))
		for i, n := range nodes {
			if n.Grad != nil {
				grads[i] = n.Grad.Clone()
			} else {
				grads[i] = mat.New(params[i].Rows(), params[i].Cols())
			}
		}
		return loss.Value.At(0, 0), grads
	}
	_, grads := eval()

	const eps = 1e-6
	for pi, p := range params {
		for i := 0; i < p.Rows(); i++ {
			for j := 0; j < p.Cols(); j++ {
				orig := p.At(i, j)
				p.Set(i, j, orig+eps)
				lp, _ := eval()
				p.Set(i, j, orig-eps)
				lm, _ := eval()
				p.Set(i, j, orig)
				numeric := (lp - lm) / (2 * eps)
				got := grads[pi].At(i, j)
				if math.Abs(numeric-got) > 1e-4*(1+math.Abs(numeric)) {
					t.Fatalf("%s: param %d grad[%d,%d] = %v, finite diff %v", name, pi, i, j, got, numeric)
				}
			}
		}
	}
}

func TestGradMatMulChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := mat.RandGaussian(rng, 4, 3, 0, 1)
	b := mat.RandGaussian(rng, 3, 5, 0, 1)
	checkGrad(t, "matmul", []*mat.Dense{a, b}, func(tp *Tape, ps []*Node) *Node {
		return tp.SumSquares(tp.MatMul(ps[0], ps[1]))
	})
}

func TestGradSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := sparse.NewCSR(4, 4, []sparse.Coord{
		{Row: 0, Col: 1, Val: 0.5}, {Row: 1, Col: 0, Val: 0.5},
		{Row: 2, Col: 3, Val: 1.5}, {Row: 3, Col: 3, Val: -0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandGaussian(rng, 4, 3, 0, 1)
	checkGrad(t, "spmm", []*mat.Dense{x}, func(tp *Tape, ps []*Node) *Node {
		return tp.SumSquares(tp.SpMM(s, ps[0]))
	})
}

func TestGradSparseMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var entries []sparse.Coord
	for i := 0; i < 9; i++ {
		for j := 0; j < 20; j++ {
			if rng.Float64() < 0.15 {
				entries = append(entries, sparse.Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	a, err := sparse.NewCSR(9, 20, entries)
	if err != nil {
		t.Fatal(err)
	}
	aT := a.Transpose()
	w := mat.RandGaussian(rng, 20, 10, 0, 1)
	checkGrad(t, "sparse-matmul", []*mat.Dense{w}, func(tp *Tape, ps []*Node) *Node {
		// w enters twice, so the backward accumulates into a live gradient.
		return tp.SumSquares(tp.Mul(tp.SparseMatMul(a, aT, ps[0]), tp.SparseMatMul(a, aT, ps[0])))
	})

	// The op is MatMul on the densified constant, bit for bit.
	run := func(sparseOp bool) (*mat.Dense, *mat.Dense) {
		tp := NewTape()
		wn := tp.Param(w)
		var c *Node
		if sparseOp {
			c = tp.SparseMatMul(a, aT, wn)
		} else {
			c = tp.MatMul(tp.Const(a.ToDense()), wn)
		}
		if err := tp.Backward(tp.SumSquares(c)); err != nil {
			t.Fatal(err)
		}
		return c.Value.Clone(), wn.Grad.Clone()
	}
	sv, sg := run(true)
	dv, dg := run(false)
	for i, v := range dv.Data() {
		if math.Float64bits(sv.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("value %d = %v, dense %v", i, sv.Data()[i], v)
		}
	}
	for i, v := range dg.Data() {
		if math.Float64bits(sg.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("gradient %d = %v, dense %v", i, sg.Data()[i], v)
		}
	}
}

func TestGradElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := mat.RandGaussian(rng, 3, 4, 0, 1)
	b := mat.RandGaussian(rng, 3, 4, 0, 1)
	checkGrad(t, "add-sub-mul-scale", []*mat.Dense{a, b}, func(tp *Tape, ps []*Node) *Node {
		x := tp.Add(ps[0], ps[1])
		y := tp.Sub(ps[0], ps[1])
		z := tp.Mul(x, y)
		return tp.SumSquares(tp.Scale(0.7, z))
	})
}

func TestGradReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Keep values away from 0 where ReLU is non-differentiable.
	a := mat.Apply(mat.RandGaussian(rng, 4, 4, 0, 1), func(x float64) float64 {
		if math.Abs(x) < 0.1 {
			return x + 0.2
		}
		return x
	})
	checkGrad(t, "relu", []*mat.Dense{a}, func(tp *Tape, ps []*Node) *Node {
		return tp.SumSquares(tp.ReLU(ps[0]))
	})
}

func TestGradRowVecBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := mat.RandGaussian(rng, 5, 3, 0, 1)
	v := mat.RandGaussian(rng, 1, 3, 0, 1)
	checkGrad(t, "addrowvec", []*mat.Dense{a, v}, func(tp *Tape, ps []*Node) *Node {
		return tp.SumSquares(tp.AddRowVec(ps[0], ps[1]))
	})
	checkGrad(t, "subrowvec", []*mat.Dense{a, v}, func(tp *Tape, ps []*Node) *Node {
		return tp.SumSquares(tp.SubRowVec(ps[0], ps[1]))
	})
}

func TestGradMeanRowsAndPow(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := mat.RandGaussian(rng, 6, 3, 0.5, 1)
	checkGrad(t, "central-moment", []*mat.Dense{a}, func(tp *Tape, ps []*Node) *Node {
		mean := tp.MeanRows(ps[0])
		centered := tp.SubRowVec(ps[0], mean)
		third := tp.PowElem(centered, 3)
		return tp.SumSquares(tp.MeanRows(third))
	})
}

func TestGradL2Norm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := mat.RandGaussian(rng, 2, 3, 1, 0.5)
	checkGrad(t, "l2norm", []*mat.Dense{a}, func(tp *Tape, ps []*Node) *Node {
		return tp.L2Norm(ps[0])
	})
}

func TestGradSelectRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := mat.RandGaussian(rng, 6, 3, 0, 1)
	checkGrad(t, "selectrows", []*mat.Dense{a}, func(tp *Tape, ps []*Node) *Node {
		return tp.SumSquares(tp.SelectRows(ps[0], []int{4, 0, 0, 2}))
	})
}

func TestGradOrthoPenalty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := mat.RandGaussian(rng, 4, 4, 0, 1)
	checkGrad(t, "ortho", []*mat.Dense{w}, func(tp *Tape, ps []*Node) *Node {
		return tp.OrthoPenalty(ps[0])
	})
}

func TestGradSoftmaxCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	logits := mat.RandGaussian(rng, 6, 4, 0, 1)
	labels := []int{0, 3, 1, 2, 2, 0}
	mask := []int{0, 2, 5}
	checkGrad(t, "softmax-ce", []*mat.Dense{logits}, func(tp *Tape, ps []*Node) *Node {
		return tp.SoftmaxCrossEntropy(ps[0], labels, mask)
	})
}

func TestGradTwoLayerGCNComposite(t *testing.T) {
	// End-to-end composite mirroring the real model wiring:
	// CE(S(ReLU(S·X·W0))·W1) + α·ortho(W0′) + CMD-style moment terms.
	rng := rand.New(rand.NewSource(11))
	s, err := sparse.NewCSR(5, 5, []sparse.Coord{
		{Row: 0, Col: 0, Val: 0.5}, {Row: 0, Col: 1, Val: 0.5},
		{Row: 1, Col: 0, Val: 0.5}, {Row: 1, Col: 1, Val: 0.5},
		{Row: 2, Col: 2, Val: 1}, {Row: 3, Col: 4, Val: 0.7},
		{Row: 4, Col: 3, Val: 0.7}, {Row: 4, Col: 4, Val: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandGaussian(rng, 5, 3, 0, 1)
	w0 := mat.RandGaussian(rng, 3, 4, 0, 0.7)
	w1 := mat.RandGaussian(rng, 4, 3, 0, 0.7)
	labels := []int{0, 1, 2, 1, 0}
	mask := []int{0, 1, 3}
	globalMean := mat.RandGaussian(rng, 1, 4, 0, 0.3)
	checkGrad(t, "gcn-composite", []*mat.Dense{w0, w1}, func(tp *Tape, ps []*Node) *Node {
		xn := tp.Const(x)
		h := tp.ReLU(tp.SpMM(s, tp.MatMul(xn, ps[0])))
		logits := tp.SpMM(s, tp.MatMul(h, ps[1]))
		ce := tp.SoftmaxCrossEntropy(logits, labels, mask)
		ortho := tp.OrthoPenalty(ps[1])
		cmd := tp.L2Norm(tp.Sub(tp.MeanRows(h), tp.Const(globalMean)))
		return tp.Add(ce, tp.Add(tp.Scale(0.01, ortho), tp.Scale(0.1, cmd)))
	})
}

func TestDropoutTrainEvalBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := mat.RandGaussian(rng, 50, 20, 1, 0.1)
	tp := NewTape()
	n := tp.Param(a)
	// Eval mode: identity, same node returned.
	if got := tp.Dropout(n, 0.5, rng, false); got != n {
		t.Fatal("eval-mode dropout should be identity")
	}
	if got := tp.Dropout(n, 0, rng, true); got != n {
		t.Fatal("p=0 dropout should be identity")
	}
	// Train mode: expectation preserved roughly (inverted dropout).
	d := tp.Dropout(n, 0.5, rng, true)
	ratio := mat.Sum(d.Value) / mat.Sum(a)
	if math.Abs(ratio-1) > 0.15 {
		t.Fatalf("inverted dropout mean ratio = %v, want about 1", ratio)
	}
	// Zeroed entries must stay zero in the gradient path.
	loss := tp.SumSquares(d)
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	for i, v := range d.Value.Data() {
		if v == 0 && n.Grad.Data()[i] != 0 {
			t.Fatal("gradient leaked through dropped element")
		}
	}
}

func TestBackwardErrors(t *testing.T) {
	tp := NewTape()
	a := tp.Param(mat.New(2, 2))
	if err := tp.Backward(a); err == nil {
		t.Fatal("non-scalar loss accepted")
	}
	other := NewTape()
	s := other.SumSquares(other.Param(mat.New(1, 1)))
	if err := tp.Backward(s); err == nil {
		t.Fatal("foreign node accepted")
	}
}

func TestGradAccumulatesOnReusedNode(t *testing.T) {
	// loss = sum((a+a)^2) = 4*sum(a^2) so dloss/da = 8a.
	a, _ := mat.NewFromRows([][]float64{{1, -2}})
	tp := NewTape()
	n := tp.Param(a)
	loss := tp.SumSquares(tp.Add(n, n))
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	if n.Grad.At(0, 0) != 8 || n.Grad.At(0, 1) != -16 {
		t.Fatalf("grad = %v want [8 -16]", n.Grad)
	}
}

func TestSoftmaxOutsideTape(t *testing.T) {
	m, _ := mat.NewFromRows([][]float64{{1000, 1000}, {0, math.Log(3)}})
	p := Softmax(m)
	if math.Abs(p.At(0, 0)-0.5) > 1e-12 {
		t.Fatalf("overflow handling wrong: %v", p.At(0, 0))
	}
	if math.Abs(p.At(1, 1)-0.75) > 1e-12 {
		t.Fatalf("softmax value wrong: %v", p.At(1, 1))
	}
}

// TestConstGetsNoGrad pins that no op pushes a gradient into a Const input:
// for each binary op and SparseMatMul, a constant operand keeps a nil Grad
// while the parameter beside it gets its gradient.
func TestConstGetsNoGrad(t *testing.T) {
	s, err := sparse.NewCSR(2, 2, []sparse.Coord{{Row: 0, Col: 1, Val: 2}, {Row: 1, Col: 1, Val: -1}})
	if err != nil {
		t.Fatal(err)
	}
	sT := s.Transpose()
	row := func() *mat.Dense {
		v := mat.New(1, 2)
		v.Set(0, 0, 0.5)
		v.Set(0, 1, -1)
		return v
	}
	cases := []struct {
		name string
		// build returns the loss over constant c and parameter p.
		build      func(tp *Tape, c, p *Node) *Node
		cVal, pVal func() *mat.Dense
	}{
		{"MatMul(c,p)", func(tp *Tape, c, p *Node) *Node { return tp.MatMul(c, p) }, eye2, sq2},
		{"MatMul(p,c)", func(tp *Tape, c, p *Node) *Node { return tp.MatMul(p, c) }, eye2, sq2},
		{"Mul", func(tp *Tape, c, p *Node) *Node { return tp.Mul(c, p) }, eye2, sq2},
		{"Add", func(tp *Tape, c, p *Node) *Node { return tp.Add(c, p) }, eye2, sq2},
		{"Sub(c,p)", func(tp *Tape, c, p *Node) *Node { return tp.Sub(c, p) }, eye2, sq2},
		{"Sub(p,c)", func(tp *Tape, c, p *Node) *Node { return tp.Sub(p, c) }, eye2, sq2},
		{"AddRowVec(c,p)", func(tp *Tape, c, p *Node) *Node { return tp.AddRowVec(c, p) }, eye2, row},
		{"AddRowVec(p,c)", func(tp *Tape, c, p *Node) *Node { return tp.AddRowVec(p, c) }, row, sq2},
		{"SubRowVec(c,p)", func(tp *Tape, c, p *Node) *Node { return tp.SubRowVec(c, p) }, eye2, row},
		{"SubRowVec(p,c)", func(tp *Tape, c, p *Node) *Node { return tp.SubRowVec(p, c) }, row, sq2},
		{"SparseMatMul", func(tp *Tape, c, p *Node) *Node {
			return tp.Add(tp.SparseMatMul(s, sT, c), p)
		}, eye2, sq2},
		{"ReLU(c)", func(tp *Tape, c, p *Node) *Node { return tp.Mul(tp.ReLU(c), p) }, eye2, sq2},
	}
	for _, tc := range cases {
		tp := NewTape()
		c := tp.Const(tc.cVal())
		p := tp.Param(tc.pVal())
		if err := tp.Backward(tp.SumSquares(tc.build(tp, c, p))); err != nil {
			t.Fatal(err)
		}
		if c.Grad != nil {
			t.Fatalf("%s: constant received a gradient buffer", tc.name)
		}
		if p.Grad == nil || mat.FrobNorm(p.Grad) == 0 {
			t.Fatalf("%s: parameter missing its gradient", tc.name)
		}
		if !p.IsParam() || c.IsParam() {
			t.Fatalf("%s: IsParam flags wrong", tc.name)
		}
	}
}

func eye2() *mat.Dense { return mat.Eye(2) }

func sq2() *mat.Dense {
	m, _ := mat.NewFromRows([][]float64{{1, 2}, {3, 4}})
	return m
}
