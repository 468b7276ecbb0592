package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fedomd/internal/mat"
)

func mustCSR(t *testing.T, rows, cols int, entries []Coord) *CSR {
	t.Helper()
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	var entries []Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				entries = append(entries, Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		panic(err)
	}
	return m
}

func TestNewCSRBasics(t *testing.T) {
	m := mustCSR(t, 3, 3, []Coord{{0, 1, 2}, {2, 0, 5}, {1, 1, -1}})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if m.At(0, 1) != 2 || m.At(2, 0) != 5 || m.At(1, 1) != -1 {
		t.Fatal("stored values wrong")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("missing entry not zero")
	}
}

func TestNewCSRDuplicatesSummed(t *testing.T) {
	m := mustCSR(t, 2, 2, []Coord{{0, 0, 1}, {0, 0, 2.5}})
	if m.At(0, 0) != 3.5 || m.NNZ() != 1 {
		t.Fatalf("duplicates not summed: %v nnz=%d", m.At(0, 0), m.NNZ())
	}
}

func TestNewCSROutOfRange(t *testing.T) {
	if _, err := NewCSR(2, 2, []Coord{{2, 0, 1}}); err == nil {
		t.Fatal("accepted out-of-range row")
	}
	if _, err := NewCSR(2, 2, []Coord{{0, -1, 1}}); err == nil {
		t.Fatal("accepted negative col")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	if !id.ToDense().Equal(mat.Eye(4)) {
		t.Fatal("Identity wrong")
	}
}

func TestMulDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{5, 7}, {40, 23}, {200, 64}} {
		a := randomCSR(rng, dims[0], dims[1], 0.15)
		x := mat.RandGaussian(rng, dims[1], 9, 0, 1)
		want := mat.MatMul(a.ToDense(), x)
		got := a.MulDense(x)
		if !got.EqualApprox(want, 1e-10) {
			t.Fatalf("MulDense disagrees for %v", dims)
		}
	}
}

func TestTMulDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomCSR(rng, 31, 17, 0.2)
	x := mat.RandGaussian(rng, 31, 5, 0, 1)
	want := mat.MatMul(a.ToDense().T(), x)
	got := a.TMulDense(x)
	if !got.EqualApprox(want, 1e-10) {
		t.Fatal("TMulDense disagrees with dense transpose multiply")
	}
}

// TestMatMulIntoMatchesDenseKernel checks the dense-order product against
// the dense kernels bit for bit: plain, accumulating, on a row-range shard,
// and on the transpose against the aᵀ·b kernel.
func TestMatMulIntoMatchesDenseKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomCSR(rng, 70, 600, 0.05)
	x := mat.RandGaussian(rng, 600, 20, 0, 1)
	same := func(what string, got, want *mat.Dense) {
		t.Helper()
		for i, v := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("%s: element %d = %v, dense kernel %v", what, i, got.Data()[i], v)
			}
		}
	}
	got := mat.New(70, 20)
	a.MatMulInto(got, x)
	same("MatMulInto", got, mat.MatMul(a.ToDense(), x))

	want := mat.RandGaussian(rng, 70, 20, 0, 1)
	got = want.Clone()
	mat.MatMulAddInto(want, a.ToDense(), x)
	a.MatMulAddInto(got, x)
	same("MatMulAddInto", got, want)

	sh := a.Shard(13, 50)
	got = mat.New(37, 20)
	sh.MatMulInto(got, x)
	same("shard MatMulInto", got, mat.MatMul(sh.ToDense(), x))

	g := mat.RandGaussian(rng, 70, 20, 0, 1)
	want = mat.RandGaussian(rng, 600, 20, 0, 1)
	got = want.Clone()
	mat.MatMulT1AddInto(want, a.ToDense(), g)
	a.Transpose().MatMulAddInto(got, g)
	same("transpose MatMulAddInto", got, want)
}

// TestMulDenseCSRMatchesMulDense checks the sparse-features propagation
// against the sparse·dense kernel bit for bit, including an exact
// cancellation that must not be stored, and its product-count limit.
func TestMulDenseCSRMatchesMulDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomCSR(rng, 50, 40, 0.1)
	x := randomCSR(rng, 40, 300, 0.03).ToDense()
	terms := 0
	for i := 0; i < m.Rows(); i++ {
		m.RowEntries(i, func(k int, _ float64) {
			for _, v := range x.Row(k) {
				if v != 0 {
					terms++
				}
			}
		})
	}
	got := m.MulDenseCSR(x, terms)
	want := m.MulDense(x)
	nnz := 0
	for _, v := range want.Data() {
		if v != 0 {
			nnz++
		}
	}
	if got == nil || got.NNZ() != nnz {
		t.Fatalf("MulDenseCSR stores %v, product has %d nonzeros", got, nnz)
	}
	for i, v := range got.ToDense().Data() {
		if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
			t.Fatalf("element %d = %v, MulDense %v", i, v, want.Data()[i])
		}
	}
	if m.MulDenseCSR(x, terms-1) != nil {
		t.Fatal("MulDenseCSR ignored its product limit")
	}
	cancel := mustCSR(t, 1, 2, []Coord{{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: -1}})
	same, _ := mat.NewFromRows([][]float64{{3}, {3}})
	if p := cancel.MulDenseCSR(same, 2); p == nil || p.NNZ() != 0 {
		t.Fatalf("exact cancellation stored entries: %v", p)
	}
}

func TestFromDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomCSR(rng, 12, 9, 0.3)
	d := a.ToDense()
	b := FromDense(d, a.NNZ())
	if b == nil || b.NNZ() != a.NNZ() || !b.ToDense().Equal(d) {
		t.Fatalf("FromDense round trip: %v, want %d stored entries", b, a.NNZ())
	}
	if FromDense(d, a.NNZ()-1) != nil {
		t.Fatal("FromDense ignored its entry limit")
	}
	if z := FromDense(mat.New(3, 4), 0); z == nil || z.NNZ() != 0 {
		t.Fatal("FromDense stored zeros")
	}
}

func TestMulDenseShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	Identity(3).MulDense(mat.New(4, 2))
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(rng, 10, 14, 0.3)
	at := a.Transpose()
	if !at.ToDense().Equal(a.ToDense().T()) {
		t.Fatal("Transpose wrong")
	}
	if !a.Transpose().Transpose().ToDense().Equal(a.ToDense()) {
		t.Fatal("double transpose not identity")
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := mustCSR(t, 3, 3, []Coord{{0, 1, 2}, {1, 0, 2}, {2, 2, 1}})
	if !sym.IsSymmetric(0) {
		t.Fatal("symmetric matrix not detected")
	}
	asym := mustCSR(t, 3, 3, []Coord{{0, 1, 2}})
	if asym.IsSymmetric(0) {
		t.Fatal("asymmetric matrix declared symmetric")
	}
	if mustCSR(t, 2, 3, nil).IsSymmetric(0) {
		t.Fatal("non-square declared symmetric")
	}
}

func TestGCNNormalizeKnown(t *testing.T) {
	// Path graph 0-1: A+I degrees are [2,2]; off-diagonals become 1/2.
	a := mustCSR(t, 2, 2, []Coord{{0, 1, 1}, {1, 0, 1}})
	s, err := GCNNormalize(a)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mat.NewFromRows([][]float64{{0.5, 0.5}, {0.5, 0.5}})
	if !s.ToDense().EqualApprox(want, 1e-12) {
		t.Fatalf("GCNNormalize = %v", s.ToDense())
	}
}

func TestGCNNormalizeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Random symmetric 0/1 adjacency.
	n := 30
	var entries []Coord
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.1 {
				entries = append(entries, Coord{i, j, 1}, Coord{j, i, 1})
			}
		}
	}
	a := mustCSR(t, n, n, entries)
	s, err := GCNNormalize(a)
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsSymmetric(1e-12) {
		t.Fatal("normalised operator should be symmetric for symmetric A")
	}
	// Isolated nodes get only the self loop, normalised to exactly 1.
	// All values in (0, 1].
	for i := 0; i < n; i++ {
		s.RowEntries(i, func(_ int, v float64) {
			if v <= 0 || v > 1+1e-12 {
				t.Fatalf("normalised value %v outside (0,1]", v)
			}
		})
	}
	// Largest eigenvalue of S̃ is 1 (Perron); check via power iteration that
	// ‖S̃x‖ ≤ ‖x‖ holds for random x.
	x := mat.RandGaussian(rng, n, 1, 0, 1)
	for k := 0; k < 5; k++ {
		y := s.MulDense(x)
		if mat.FrobNorm(y) > mat.FrobNorm(x)+1e-9 {
			t.Fatal("GCN operator expanded a vector; spectral radius > 1")
		}
		x = y
	}
}

func TestGCNNormalizeRejectsNonSquare(t *testing.T) {
	if _, err := GCNNormalize(mustCSR(t, 2, 3, nil)); err == nil {
		t.Fatal("accepted non-square adjacency")
	}
}

func TestGCNNormalizeIsolatedNode(t *testing.T) {
	// Node 2 is isolated: its only entry after normalisation is S[2,2]=1.
	a := mustCSR(t, 3, 3, []Coord{{0, 1, 1}, {1, 0, 1}})
	s, err := GCNNormalize(a)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(2, 2) != 1 {
		t.Fatalf("isolated node self weight = %v want 1", s.At(2, 2))
	}
}

func TestRowSumNormalize(t *testing.T) {
	a := mustCSR(t, 3, 3, []Coord{{0, 1, 1}, {0, 2, 1}, {1, 0, 2}})
	nrm := RowSumNormalize(a)
	if nrm.At(0, 1) != 0.5 || nrm.At(0, 2) != 0.5 {
		t.Fatal("row 0 not mean-normalised")
	}
	if nrm.At(1, 0) != 1 {
		t.Fatal("row 1 not normalised")
	}
	// Zero row stays zero; original untouched.
	if nrm.RowNNZ(2) != 0 {
		t.Fatal("zero row gained entries")
	}
	if a.At(0, 1) != 1 {
		t.Fatal("RowSumNormalize mutated its input")
	}
}

func TestMulDenseLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 2+rng.Intn(20), 2+rng.Intn(20)
		a := randomCSR(rng, r, c, 0.25)
		x := mat.RandGaussian(rng, c, 3, 0, 1)
		y := mat.RandGaussian(rng, c, 3, 0, 1)
		left := a.MulDense(mat.Add(x, y))
		right := mat.Add(a.MulDense(x), a.MulDense(y))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGCNRowStochasticOnRegularGraph(t *testing.T) {
	// Ring of n nodes: every node has degree 2, so D^{-1/2}(A+I)D^{-1/2} rows
	// sum to exactly 1.
	n := 12
	var entries []Coord
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		entries = append(entries, Coord{i, j, 1}, Coord{j, i, 1})
	}
	a := mustCSR(t, n, n, entries)
	s, err := GCNNormalize(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var sum float64
		s.RowEntries(i, func(_ int, v float64) { sum += v })
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v on a regular graph", i, sum)
		}
	}
}
