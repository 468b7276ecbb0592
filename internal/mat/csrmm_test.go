package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// csrOf returns the CSR arrays of d's nonzeros. base shifts every offset, as
// in a row-range view whose first entry sits mid-array; colIdx and vals get
// base leading filler entries so the offsets stay valid.
func csrOf(d *Dense, base int) (rowPtr, colIdx []int, vals []float64) {
	rowPtr = make([]int, d.rows+1)
	colIdx = make([]int, base)
	vals = make([]float64, base)
	for i := range colIdx {
		colIdx[i], vals[i] = -1, math.NaN()
	}
	rowPtr[0] = base
	for i := 0; i < d.rows; i++ {
		for j, v := range d.data[i*d.cols : (i+1)*d.cols] {
			if v != 0 {
				colIdx = append(colIdx, j)
				vals = append(vals, v)
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return rowPtr, colIdx, vals
}

// bowMatrix draws an r×k matrix about 5% nonzero with mixed signs, with
// every third row empty and no entry in the k-block [kcBlock, 2·kcBlock).
func bowMatrix(r, k int, rng *rand.Rand) *Dense {
	m := New(r, k)
	for i := 0; i < r; i++ {
		if i%3 == 2 {
			continue
		}
		for j := 0; j < k; j++ {
			if j >= kcBlock && j < 2*kcBlock {
				continue
			}
			if rng.Float64() < 0.05 {
				m.data[i*k+j] = rng.NormFloat64()
			}
		}
	}
	return m
}

// accumStart fills an output with the values an accumulating call starts
// from, including −0 cells (an empty block's +0 partial turns them into +0).
func accumStart(r, c int, rng *rand.Rand) *Dense {
	m := New(r, c)
	for i := range m.data {
		switch i % 4 {
		case 0:
			m.data[i] = math.Copysign(0, -1)
		case 1:
			m.data[i] = 0
		default:
			m.data[i] = rng.NormFloat64()
		}
	}
	return m
}

func requireBits(t *testing.T, what string, got, want *Dense) {
	t.Helper()
	for i := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: element %d (row %d col %d) = %x, dense kernel %x",
				what, i, i/want.cols, i%want.cols, math.Float64bits(got.data[i]), math.Float64bits(want.data[i]))
		}
	}
}

// kExact spans three full k-blocks plus a ragged tail.
const kExact = 3*kcBlock + 37

var (
	exactRows = []int{4, 5, 6, 7, 60, 61, 62, 63}
	exactCols = []int{1, 7, 8, 12, 64, 264}
)

// TestMatMulCSRMatchesDense pins the exactness contract: for every row
// residue mod 4, every column count around the SIMD tile width, k across
// several blocks with an empty block and empty rows, negative values, both
// accumulation modes and both SIMD settings, the CSR kernel equals
// MatMulInto/MatMulAddInto on the densified operand bit for bit.
func TestMatMulCSRMatchesDense(t *testing.T) {
	for _, avx := range []bool{false, true} {
		ran := withAVX(avx, func() {
			for _, r := range exactRows {
				for _, p := range exactCols {
					rng := rand.New(rand.NewSource(int64(r*1000 + p)))
					a := bowMatrix(r, kExact, rng)
					b := randDense(kExact, p, rng)
					rowPtr, colIdx, vals := csrOf(a, r%3)
					for _, accum := range []bool{false, true} {
						want := accumStart(r, p, rng)
						got := want.Clone()
						if accum {
							MatMulAddInto(want, a, b)
						} else {
							for i := range got.data {
								got.data[i] = 1e30 // stale content must be overwritten
							}
							MatMulInto(want, a, b)
						}
						MatMulCSRInto(got, rowPtr, colIdx, vals, b, accum)
						requireBits(t, describe("A·B", avx, r, p, accum), got, want)
					}
				}
			}
		})
		if !ran {
			t.Logf("avx=%v unavailable on this host", avx)
		}
	}
}

// TestMatMulCSRMatchesT1 runs the kernel on the CSR of Aᵀ against
// MatMulT1Into/MatMulT1AddInto(A, B): the ∂W = Aᵀ·G product of a layer whose
// input A is a constant.
func TestMatMulCSRMatchesT1(t *testing.T) {
	for _, avx := range []bool{false, true} {
		withAVX(avx, func() {
			for _, f := range exactRows {
				for _, p := range exactCols {
					rng := rand.New(rand.NewSource(int64(f*7 + p)))
					// a is kExact×f; its transpose is bag-of-words shaped.
					at := bowMatrix(f, kExact, rng)
					a := at.T()
					g := randDense(kExact, p, rng)
					rowPtr, colIdx, vals := csrOf(at, 0)
					for _, accum := range []bool{false, true} {
						want := accumStart(f, p, rng)
						got := want.Clone()
						if accum {
							MatMulT1AddInto(want, a, g)
						} else {
							MatMulT1Into(want, a, g)
						}
						MatMulCSRInto(got, rowPtr, colIdx, vals, g, accum)
						requireBits(t, describe("Aᵀ·G", avx, f, p, accum), got, want)
					}
				}
			}
		})
	}
}

func describe(op string, avx bool, r, p int, accum bool) string {
	return fmt.Sprintf("%s avx=%v rows=%d cols=%d accum=%v", op, avx, r, p, accum)
}

// TestMatMulCSRInnerDimZero pins the k = 0 edge like TestMatMulZeroInnerDim:
// zeroed without accumulation, untouched with it.
func TestMatMulCSRInnerDimZero(t *testing.T) {
	out := New(5, 7)
	for i := range out.data {
		out.data[i] = 3
	}
	rowPtr := make([]int, 6)
	MatMulCSRInto(out, rowPtr, nil, nil, New(0, 7), true)
	for i, v := range out.data {
		if v != 3 {
			t.Fatalf("accumulating k=0: element %d = %g, want 3", i, v)
		}
	}
	MatMulCSRInto(out, rowPtr, nil, nil, New(0, 7), false)
	for i, v := range out.data {
		if v != 0 {
			t.Fatalf("k=0: element %d = %g, want 0", i, v)
		}
	}
}

// TestMatMulCSRBitIdenticalAcrossWorkerCounts pins determinism under the
// worker pool on shapes large enough to dispatch in parallel.
func TestMatMulCSRBitIdenticalAcrossWorkerCounts(t *testing.T) {
	defer SetWorkers(0)
	for _, sh := range [][2]int{{903, 64}, {1433, 64}, {301, 37}} {
		r, p := sh[0], sh[1]
		rng := rand.New(rand.NewSource(int64(r + p)))
		a := bowMatrix(r, kExact, rng)
		b := randDense(kExact, p, rng)
		rowPtr, colIdx, vals := csrOf(a, 0)
		if len(vals)*p < parallelThreshold {
			t.Fatalf("%dx%d: %d multiply-adds stay below the parallel threshold", r, p, len(vals)*p)
		}
		for _, accum := range []bool{false, true} {
			SetWorkers(1)
			ref := accumStart(r, p, rng)
			start := ref.Clone()
			MatMulCSRInto(ref, rowPtr, colIdx, vals, b, accum)
			for _, w := range workerCounts()[1:] {
				SetWorkers(w)
				got := start.Clone()
				MatMulCSRInto(got, rowPtr, colIdx, vals, b, accum)
				requireBits(t, fmt.Sprintf("%dx%d workers=%d accum=%v", r, p, w, accum), got, ref)
			}
		}
	}
}

// TestMatMulCSRAllocs keeps the kernel churn-free: the block-partial scratch
// comes from the pool and goes back.
func TestMatMulCSRAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops Put items under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	a := bowMatrix(40, kExact, rng)
	b := randDense(kExact, 12, rng)
	rowPtr, colIdx, vals := csrOf(a, 0)
	out := New(40, 12)
	run := func() { MatMulCSRInto(out, rowPtr, colIdx, vals, b, true) }
	run()
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Fatalf("MatMulCSRInto allocates %.0f times per call, want 0", got)
	}
}

func TestMatMulCSRPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	b := New(5, 4)
	mustPanic("row pointer/output mismatch", func() { MatMulCSRInto(New(3, 4), make([]int, 3), nil, nil, b, false) })
	mustPanic("column past b", func() { MatMulCSRInto(New(1, 4), []int{0, 1}, []int{5}, []float64{1}, b, false) })
	mustPanic("negative column", func() { MatMulCSRInto(New(1, 4), []int{0, 1}, []int{-1}, []float64{1}, b, false) })
}
