package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedomd/internal/ad"
	"fedomd/internal/mat"
)

// bowFixture swaps allocFixture's Gaussian features for bag-of-words ones:
// 301 columns with 5 active per node, so S̃X is a few percent nonzero and
// the first layer takes the CSR form.
func bowFixture(t testing.TB) Input {
	s, x, _, _ := allocFixture(t)
	rng := rand.New(rand.NewSource(11))
	bow := mat.New(x.Rows(), 301)
	for i := 0; i < bow.Rows(); i++ {
		for a := 0; a < 5; a++ {
			bow.Set(i, rng.Intn(bow.Cols()), rng.Float64()-0.3)
		}
	}
	return Input{S: s, X: bow}
}

// denseOperand builds the dense form of the operand a CSR-form cache holds.
func denseOperand(t *testing.T, c *propCache, in Input) *constOperand {
	t.Helper()
	if c.op == nil || c.op.csr == nil {
		t.Fatal("bag-of-words fixture did not take the CSR form")
	}
	if in.S == nil {
		return &constOperand{dense: in.X}
	}
	return &constOperand{dense: in.S.MulDense(in.X)}
}

// stepBits runs one training forward (dropout on) and backward and returns
// the bit patterns of the logits, the hidden states and the parameter
// gradients.
func stepBits(t *testing.T, m Model, in Input) []uint64 {
	t.Helper()
	_, _, labels, mask := allocFixture(t)
	tp := ad.NewTape()
	defer tp.Release()
	f := m.Forward(tp, in, rand.New(rand.NewSource(5)), true)
	if err := tp.Backward(tp.SoftmaxCrossEntropy(f.Logits, labels, mask)); err != nil {
		t.Fatal(err)
	}
	var out []uint64
	put := func(d *mat.Dense) {
		for _, v := range d.Data() {
			out = append(out, math.Float64bits(v))
		}
	}
	put(f.Logits.Value)
	for _, h := range f.Hidden {
		put(h.Value)
	}
	for _, p := range f.ParamNodes {
		put(p.Grad)
	}
	return out
}

// TestFirstLayerCSRMatchesDense pins that holding the first-layer operand
// as CSR changes no bit of a training step: logits, hidden states and every
// parameter gradient equal the dense operand's, for each model that uses it.
func TestFirstLayerCSRMatchesDense(t *testing.T) {
	in := bowFixture(t)
	rng := rand.New(rand.NewSource(6))
	gcn, err := NewGCN(rng, []int{in.X.Cols(), 12, 3}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ortho, err := NewOrthoGCN(rng, in.X.Cols(), 12, 3, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := NewMLP(rng, []int{in.X.Cols(), 12, 3}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		model Model
		cache *propCache
		in    Input
	}{
		{"GCN", gcn, &gcn.prop, in},
		{"OrthoGCN", ortho, &ortho.prop, in},
		{"MLP", mlp, &mlp.feat, Input{X: in.X}},
	}
	for _, tc := range cases {
		csr := stepBits(t, tc.model, tc.in)
		tc.cache.op = denseOperand(t, tc.cache, tc.in)
		dense := stepBits(t, tc.model, tc.in)
		if len(csr) != len(dense) {
			t.Fatalf("%s: %d values with CSR, %d dense", tc.name, len(csr), len(dense))
		}
		for i := range dense {
			if csr[i] != dense[i] {
				t.Fatalf("%s: value %d = %x with the CSR operand, %x dense", tc.name, i, csr[i], dense[i])
			}
		}
	}
}

// TestTrainStepAllocsSparseFirstLayer keeps the CSR path churn-free: the
// steady-state step stays within the dense path's bounds.
func TestTrainStepAllocsSparseFirstLayer(t *testing.T) {
	in := bowFixture(t)
	rng := rand.New(rand.NewSource(7))
	gcn, err := NewGCN(rng, []int{in.X.Cols(), 8, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := trainStepAllocs(t, gcn, in); got > 40 {
		t.Fatalf("GCN steady-state step allocates %.0f times, want <= 40", got)
	}
	ortho, err := NewOrthoGCN(rng, in.X.Cols(), 8, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := trainStepAllocs(t, ortho, in); got > 80 {
		t.Fatalf("OrthoGCN steady-state step allocates %.0f times, want <= 80", got)
	}
	if gcn.prop.op.csr == nil || ortho.prop.op.csr == nil {
		t.Fatal("bag-of-words fixture did not take the CSR form")
	}
}

// TestConstOperandMatMulMatchesDense pins the serving table build's first
// layer: the operand product equals the dense (S̃X)·W⁰ the tables were built
// from before, bit for bit, in both forms.
func TestConstOperandMatMulMatchesDense(t *testing.T) {
	in := bowFixture(t)
	w := mat.RandGaussian(rand.New(rand.NewSource(8)), in.X.Cols(), 12, 0, 1)
	want := mat.MatMul(in.S.MulDense(in.X), w)
	op := newConstOperand(in.S, in.X)
	if op.csr == nil {
		t.Fatal("bag-of-words fixture did not take the CSR form")
	}
	for name, o := range map[string]*constOperand{"csr": op, "dense": {dense: in.S.MulDense(in.X)}} {
		for i, v := range o.matMul(w).Data() {
			if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
				t.Fatalf("%s: element %d = %v, dense product %v", name, i, v, want.Data()[i])
			}
		}
	}
}
