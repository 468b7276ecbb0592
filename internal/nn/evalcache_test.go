package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedomd/internal/ad"
	"fedomd/internal/mat"
)

func TestParamsEqual(t *testing.T) {
	mk := func() *Params {
		p := NewParams()
		p.Add("w", mat.Eye(2))
		p.Add("b", mat.New(1, 2))
		return p
	}
	p, q := mk(), mk()
	if !p.Equal(q) || !p.Equal(p) {
		t.Fatal("identical sets compare unequal")
	}
	q.Get("w").Set(1, 0, 1e-300)
	if p.Equal(q) {
		t.Fatal("value change not detected")
	}
	// Bitwise: -0 differs from +0, and a NaN equals the same NaN.
	q = mk()
	q.Get("b").Set(0, 1, math.Copysign(0, -1))
	if p.Equal(q) {
		t.Fatal("-0 compared equal to +0")
	}
	p.Get("b").Set(0, 0, math.NaN())
	q = p.Clone()
	if !p.Equal(q) {
		t.Fatal("identical NaN bit patterns compared unequal")
	}
	// Shape, name and length mismatches are unequal, not errors.
	shape := NewParams()
	shape.Add("w", mat.Eye(3))
	shape.Add("b", mat.New(1, 2))
	named := NewParams()
	named.Add("w", mat.Eye(2))
	named.Add("c", mat.New(1, 2))
	short := NewParams()
	short.Add("w", mat.Eye(2))
	for name, r := range map[string]*Params{"shape": shape, "name": named, "length": short} {
		if p.Equal(r) || r.Equal(p) {
			t.Fatalf("%s mismatch compared equal", name)
		}
	}
}

func TestOrthoGCNSpectralBoundGetter(t *testing.T) {
	m, err := NewOrthoGCN(rand.New(rand.NewSource(1)), 4, 3, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.SpectralBound() {
		t.Fatal("spectral bound should default on")
	}
	m.SetSpectralBound(false)
	if m.SpectralBound() {
		t.Fatal("getter does not reflect SetSpectralBound")
	}
}

func TestEvalCacheKey(t *testing.T) {
	s, x := lineGraph(t)
	rng := rand.New(rand.NewSource(2))
	m, err := NewOrthoGCN(rng, x.Cols(), 4, 2, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{S: s, X: x}
	records := 0
	e := NewEvalCache(m.Params(), m.SpectralBound, func(tp *ad.Tape) *Forward {
		records++
		return m.Forward(tp, in, rng, false)
	})
	logits := func() []float64 { return append([]float64(nil), e.Forward().Logits.Value.Data()...) }
	fresh := func() []float64 {
		tp := ad.NewTape()
		defer tp.Release()
		return append([]float64(nil), m.Forward(tp, in, rng, false).Logits.Value.Data()...)
	}
	same := func(step string, a, b []float64) {
		t.Helper()
		for i := range b {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: cached logit %d = %v, fresh %v", step, i, a[i], b[i])
			}
		}
	}
	same("first", logits(), fresh())
	e.Forward()
	if records != 1 {
		t.Fatalf("two lookups at one snapshot recorded %d passes", records)
	}
	// Each of these changes what a fresh pass computes and must miss.
	for _, step := range []struct {
		name string
		mut  func()
	}{
		{"in-place param write", func() { m.Params().Get("w_out").Set(0, 0, 0.75) }},
		{"param scale", func() { m.Params().Get("w_ortho1").ScaleInPlace(3) }},
		{"spectral bound off", func() { m.SetSpectralBound(false) }},
		{"release", func() { e.Release() }},
	} {
		before := records
		step.mut()
		same(step.name, logits(), fresh())
		if records != before+1 {
			t.Fatalf("%s: %d passes recorded, want 1", step.name, records-before)
		}
	}
	// Accuracy shares the cached pass and scores its argmax.
	before := records
	labels := mat.ArgmaxRows(e.Forward().Logits.Value)
	labels[1] = 1 - labels[1]
	c1, n1 := e.Accuracy(labels, []int{0, 1})
	c2, n2 := e.Accuracy(labels, []int{2, 3})
	if records != before || c1 != 1 || n1 != 2 || c2 != 2 || n2 != 2 {
		t.Fatalf("accuracy recomputed (%d passes) or miscounted: %d/%d %d/%d", records-before, c1, n1, c2, n2)
	}
	if c, n := e.Accuracy(labels, nil); c != 0 || n != 0 {
		t.Fatalf("empty mask scored %d/%d", c, n)
	}
}
