// Package sparse implements compressed sparse row (CSR) matrices and the
// kernels graph convolutions need: parallel sparse×dense multiplication and
// the symmetric GCN normalisation D^{-1/2}(A+I)D^{-1/2}.
//
// A CSR value may be a *shard*: a row-range view created by Shard(lo, hi)
// that shares colIdx/vals with its parent and keeps absolute offsets in its
// rowPtr window (rowPtr[0] is the parent offset of the shard's first entry,
// not necessarily 0). Every method indexes colIdx/vals through rowPtr, so
// shards and whole matrices run the same code; anything that walks "all
// entries" must walk the [rowPtr[0], rowPtr[rows]) window, never the full
// backing arrays.
package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"fedomd/internal/mat"
	"fedomd/internal/telemetry"
)

// Process-global telemetry: SpMM kernel invocations and their floating-point
// work (one multiply-add per stored entry per output column, counted as
// 2 FLOPs). One atomic add per kernel call — not per entry — so the cost is
// invisible next to the multiply itself.
var (
	spmmCalls = telemetry.NewCounter("sparse/spmm_calls")
	spmmFlops = telemetry.NewCounter("sparse/spmm_flops")
)

// CSR is a compressed-sparse-row matrix of float64, or a row-range shard of
// one (see the package comment for the shard invariants).
type CSR struct {
	rows, cols int
	rowPtr     []int     // len rows+1; absolute offsets into colIdx/vals
	colIdx     []int     // shared with parent for shards
	vals       []float64 // shared with parent for shards
}

// Coord is a single (row, col, value) entry used when assembling a CSR
// matrix from coordinate (COO) form.
type Coord struct {
	Row, Col int
	Val      float64
}

// NewCSR assembles a rows×cols CSR matrix from coordinate entries in
// O(nnz + rows + cols) time: two stable counting-sort passes (by column,
// then by row) order the entries by (row, col) without comparisons, and a
// final merge sums duplicates. Entries out of range yield an error.
func NewCSR(rows, cols int, entries []Coord) (*CSR, error) {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range for %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	nnz := len(entries)
	m := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	if nnz == 0 {
		return m, nil
	}

	// Stable counting sort by column: perm lists entry indices in ascending
	// column order (ties in input order).
	colCnt := make([]int, cols+1)
	for _, e := range entries {
		colCnt[e.Col+1]++
	}
	for c := 0; c < cols; c++ {
		colCnt[c+1] += colCnt[c]
	}
	perm := make([]int, nnz)
	for idx, e := range entries {
		perm[colCnt[e.Col]] = idx
		colCnt[e.Col]++
	}

	// Stable counting sort by row over the column-ordered permutation:
	// byRow lists entry indices in (row, col) order, duplicates adjacent.
	rowCnt := make([]int, rows+1)
	for _, e := range entries {
		rowCnt[e.Row+1]++
	}
	for r := 0; r < rows; r++ {
		rowCnt[r+1] += rowCnt[r]
	}
	byRow := make([]int, nnz)
	for _, idx := range perm {
		r := entries[idx].Row
		byRow[rowCnt[r]] = idx
		rowCnt[r]++
	}

	// Merge duplicates and build the row pointers.
	m.colIdx = make([]int, 0, nnz)
	m.vals = make([]float64, 0, nnz)
	lastRow, lastCol := -1, -1
	for _, idx := range byRow {
		e := entries[idx]
		if e.Row == lastRow && e.Col == lastCol {
			m.vals[len(m.vals)-1] += e.Val
			continue
		}
		m.colIdx = append(m.colIdx, e.Col)
		m.vals = append(m.vals, e.Val)
		m.rowPtr[e.Row+1]++
		lastRow, lastCol = e.Row, e.Col
	}
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m, nil
}

// NewCSRFromParts adopts pre-assembled CSR arrays without copying — the
// O(nnz) streaming builders (dataset.GenerateStream) construct rowPtr/
// colIdx/vals directly and hand them over here. The invariants are checked
// in O(nnz): rowPtr monotone spanning [0, len(colIdx)], columns in range and
// strictly ascending within each row (at most one stored value per cell,
// binary-searchable). The caller must not retain or mutate the slices.
func NewCSRFromParts(rows, cols int, rowPtr, colIdx []int, vals []float64) (*CSR, error) {
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("sparse: rowPtr length %d, want %d", len(rowPtr), rows+1)
	}
	if len(colIdx) != len(vals) {
		return nil, fmt.Errorf("sparse: colIdx length %d != vals length %d", len(colIdx), len(vals))
	}
	if rowPtr[0] != 0 || rowPtr[rows] != len(colIdx) {
		return nil, fmt.Errorf("sparse: rowPtr span [%d,%d], want [0,%d]", rowPtr[0], rowPtr[rows], len(colIdx))
	}
	for r := 0; r < rows; r++ {
		if rowPtr[r+1] < rowPtr[r] {
			return nil, fmt.Errorf("sparse: rowPtr decreases at row %d", r)
		}
		last := -1
		for k := rowPtr[r]; k < rowPtr[r+1]; k++ {
			c := colIdx[k]
			if c < 0 || c >= cols {
				return nil, fmt.Errorf("sparse: column %d out of range at row %d", c, r)
			}
			if c <= last {
				return nil, fmt.Errorf("sparse: columns not strictly ascending in row %d", r)
			}
			last = c
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}, nil
}

// FromDense returns the CSR form of d's nonzero entries, columns ascending
// within each row, or nil when more than maxNNZ entries are nonzero. A
// counting pass, which stops at the limit, sizes the arrays exactly.
func FromDense(d *mat.Dense, maxNNZ int) *CSR {
	rowPtr := nnzPrefix(d, maxNNZ)
	if rowPtr == nil {
		return nil
	}
	return fromDenseRows(d, rowPtr)
}

// nnzPrefix returns the prefix sums of d's per-row nonzero counts, the
// rowPtr of its CSR form, or nil once the total passes limit.
func nnzPrefix(d *mat.Dense, limit int) []int {
	rowPtr := make([]int, d.Rows()+1)
	for i := 0; i < d.Rows(); i++ {
		n := rowPtr[i]
		for _, v := range d.Row(i) {
			if v != 0 {
				n++
			}
		}
		if n > limit {
			return nil
		}
		rowPtr[i+1] = n
	}
	return rowPtr
}

// fromDenseRows fills the CSR form of d whose rowPtr nnzPrefix computed.
func fromDenseRows(d *mat.Dense, rowPtr []int) *CSR {
	rows, cols := d.Dims()
	nnz := rowPtr[rows]
	m := &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: make([]int, nnz), vals: make([]float64, nnz)}
	k := 0
	for i := 0; i < rows; i++ {
		for j, v := range d.Row(i) {
			if v != 0 {
				m.colIdx[k], m.vals[k] = j, v
				k++
			}
		}
	}
	return m
}

// Identity returns the n×n identity in CSR form.
func Identity(n int) *CSR {
	m := &CSR{rows: n, cols: n, rowPtr: make([]int, n+1), colIdx: make([]int, n), vals: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] = i + 1
		m.colIdx[i] = i
		m.vals[i] = 1
	}
	return m
}

// Shard returns a view of rows [lo, hi) sharing the backing colIdx/vals
// arrays with m — no copying, so per-client subgraph operators and SpMM
// tiles can be carved out of a million-node matrix for free. The shard's
// column space is unchanged. Mutating kernels (RowSumNormalize etc.) copy
// before writing; the view itself never writes through to the parent.
func (m *CSR) Shard(lo, hi int) *CSR {
	if lo < 0 || hi > m.rows || lo > hi {
		panic(fmt.Sprintf("sparse: Shard range [%d,%d) out of bounds for %d rows", lo, hi, m.rows))
	}
	return &CSR{rows: hi - lo, cols: m.cols, rowPtr: m.rowPtr[lo : hi+1], colIdx: m.colIdx, vals: m.vals}
}

// ScaleVals multiplies every stored value of m by alpha in place — the cheap
// way to apply a global edge-weight factor (e.g. a damping or temperature
// term) without rebuilding the matrix. Because Shard views share the parent's
// vals array, calling ScaleVals on a shard writes the parent's window, and
// calling it on the parent silently rescales every outstanding shard; the
// shardalias vet check rejects both. Scale before carving shards, or rebuild.
func (m *CSR) ScaleVals(alpha float64) {
	for k := m.rowPtr[0]; k < m.rowPtr[m.rows]; k++ {
		m.vals[k] *= alpha
	}
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries (of the shard window, for a
// shard view).
func (m *CSR) NNZ() int { return m.rowPtr[m.rows] - m.rowPtr[0] }

// At returns the element at (i, j); zero if not stored. O(log row-nnz).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.vals[k]
	}
	return 0
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.rowPtr[i+1] - m.rowPtr[i] }

// RowEntries calls f for each stored (col, val) in row i.
func (m *CSR) RowEntries(i int, f func(col int, val float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		f(m.colIdx[k], m.vals[k])
	}
}

// ToDense materialises m as a dense matrix (for tests and small problems).
func (m *CSR) ToDense() *mat.Dense {
	d := mat.New(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, m.colIdx[k], m.vals[k])
		}
	}
	return d
}

// spmmColBlock bounds the column width one SpMM pass touches, so the gather
// rows of x stay cache-resident for wide feature matrices. A multiple of 4
// keeps the AVX axpy on the aligned fast path for full blocks.
const spmmColBlock = 256

// spmmSerialWork is the multiply-add count below which SpMM stays serial.
const spmmSerialWork = 1 << 15

// MulDense returns m·x for a dense x, sharding rows over the shared worker
// pool. It panics if m.Cols() != x.Rows().
func (m *CSR) MulDense(x *mat.Dense) *mat.Dense {
	out := mat.New(m.rows, x.Cols())
	m.MulDenseInto(out, x)
	return out
}

// MulDenseInto computes out = m·x into caller-owned storage (typically a
// pooled buffer). out must be m.Rows()×x.Cols() and must not alias x. The
// zeroing of out is folded into the kernel's first column pass.
func (m *CSR) MulDenseInto(out, x *mat.Dense) {
	m.mulDenseDispatch(out, x, false)
}

// MulDenseAddInto computes out += m·x — fused accumulation for callers that
// combine propagation with an existing buffer. Shape rules match
// MulDenseInto.
func (m *CSR) MulDenseAddInto(out, x *mat.Dense) {
	m.mulDenseDispatch(out, x, true)
}

func (m *CSR) mulDenseDispatch(out, x *mat.Dense, accum bool) {
	if m.cols != x.Rows() {
		panic(fmt.Sprintf("sparse: MulDense dimension mismatch %dx%d · %dx%d", m.rows, m.cols, x.Rows(), x.Cols()))
	}
	if out.Rows() != m.rows || out.Cols() != x.Cols() {
		panic(fmt.Sprintf("sparse: MulDenseInto output %dx%d, want %dx%d", out.Rows(), out.Cols(), m.rows, x.Cols()))
	}
	spmmCalls.Add(1)
	spmmFlops.Add(2 * int64(m.NNZ()) * int64(x.Cols()))
	work := m.NNZ() * x.Cols()
	if work < spmmSerialWork {
		m.mulDenseRange(out, x, 0, m.rows, accum)
		return
	}
	// Grain: enough rows that one chunk covers ~spmmSerialWork multiply-adds
	// at the mean row density. Determinism does not depend on the grain (each
	// output row is written by exactly one body call, with a fixed k order).
	rowWork := work/m.rows + 1
	grain := spmmSerialWork / rowWork
	if grain < 1 {
		grain = 1
	}
	mat.ParallelFor(m.rows, grain, func(lo, hi int) {
		m.mulDenseRange(out, x, lo, hi, accum)
	})
}

// mulDenseRange computes rows [lo, hi) of out (+)= m·x, column-blocked so
// the randomly gathered rows of x stay within a cache-sized window.
func (m *CSR) mulDenseRange(out, x *mat.Dense, lo, hi int, accum bool) {
	c := x.Cols()
	xd := x.Data()
	od := out.Data()
	for j0 := 0; j0 < c; j0 += spmmColBlock {
		j1 := j0 + spmmColBlock
		if j1 > c {
			j1 = c
		}
		for i := lo; i < hi; i++ {
			orow := od[i*c+j0 : i*c+j1]
			if !accum {
				for j := range orow {
					orow[j] = 0
				}
			}
			for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
				col := m.colIdx[k]
				mat.AXPYRow(orow, m.vals[k], xd[col*c+j0:col*c+j1])
			}
		}
	}
}

// MatMulInto computes out = m·x on the dense kernel's per-cell schedule
// (mat.MatMulCSRInto): for finite x it is bit-identical to
// mat.MatMulInto(out, m.ToDense(), x) at a cost proportional to m's stored
// entries. It serves constant sparse operands whose product must match the
// dense one exactly (a GCN's first layer); graph propagation uses the faster
// MulDenseInto, which has no dense twin to match.
func (m *CSR) MatMulInto(out, x *mat.Dense) {
	m.matMulDispatch(out, x, false)
}

// MatMulAddInto computes out += m·x, bit-identical to mat.MatMulAddInto on
// the densified m. On the transpose of a matrix a it reproduces
// mat.MatMulT1AddInto(out, a.ToDense(), x): the weight gradient of a layer
// whose input is the constant a.
func (m *CSR) MatMulAddInto(out, x *mat.Dense) {
	m.matMulDispatch(out, x, true)
}

func (m *CSR) matMulDispatch(out, x *mat.Dense, accum bool) {
	if m.cols != x.Rows() {
		panic(fmt.Sprintf("sparse: MatMul dimension mismatch %dx%d · %dx%d", m.rows, m.cols, x.Rows(), x.Cols()))
	}
	mat.MatMulCSRInto(out, m.rowPtr[:m.rows+1], m.colIdx, m.vals, x, accum)
}

// MulDenseCSR returns m·x in CSR form for a mostly-zero dense x, or nil
// when forming it takes more than maxTerms products. The product count —
// Σ over m's stored entries (i, k) of the nonzeros in x's row k — bounds
// the result's nonzeros and is known after one counting pass over x,
// before anything else is allocated. Each output row accumulates in
// MulDense's order (m's entries ascending, one multiply and one add per
// term) over x's nonzeros only, so for finite values the result stores
// exactly the nonzeros of m.MulDense(x).
func (m *CSR) MulDenseCSR(x *mat.Dense, maxTerms int) *CSR {
	if m.cols != x.Rows() {
		panic(fmt.Sprintf("sparse: MulDenseCSR dimension mismatch %dx%d · %dx%d", m.rows, m.cols, x.Rows(), x.Cols()))
	}
	xPtr := nnzPrefix(x, math.MaxInt)
	terms := 0
	for k := m.rowPtr[0]; k < m.rowPtr[m.rows]; k++ {
		r := m.colIdx[k]
		terms += xPtr[r+1] - xPtr[r]
	}
	if terms > maxTerms {
		return nil
	}
	spmmCalls.Add(1)
	spmmFlops.Add(2 * int64(terms))
	xs := fromDenseRows(x, xPtr)
	out := &CSR{rows: m.rows, cols: x.Cols(), rowPtr: make([]int, m.rows+1),
		colIdx: make([]int, 0, terms), vals: make([]float64, 0, terms)}
	acc := make([]float64, x.Cols())
	// touched marks the columns the current row has reached; walking its
	// set bits yields them in ascending order.
	touched := make([]uint64, (x.Cols()+63)/64)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			r, s := m.colIdx[k], m.vals[k]
			for q := xs.rowPtr[r]; q < xs.rowPtr[r+1]; q++ {
				j := xs.colIdx[q]
				if w, bit := j>>6, uint64(1)<<(j&63); touched[w]&bit == 0 {
					touched[w] |= bit
					acc[j] = 0
				}
				acc[j] += s * xs.vals[q]
			}
		}
		for w, word := range touched {
			for ; word != 0; word &= word - 1 {
				j := w<<6 + bits.TrailingZeros64(word)
				if acc[j] != 0 {
					out.colIdx = append(out.colIdx, j)
					out.vals = append(out.vals, acc[j])
				}
			}
			touched[w] = 0
		}
		out.rowPtr[i+1] = len(out.colIdx)
	}
	return out
}

// tmulStripeWork is the multiply-add count one transposed-SpMM stripe aims
// for; below 2× this the kernel stays serial (the partial buffers would cost
// more than they save).
const tmulStripeWork = 1 << 20

// tmulMaxStripes caps the partial-buffer memory at a handful of dense
// outputs.
const tmulMaxStripes = 8

// tMulStripes picks the stripe count for the parallel transposed SpMM. It
// is a pure function of the matrix shape and x's width — never of the
// worker count — which is what makes the parallel kernel's output
// bit-identical across pool configurations.
func (m *CSR) tMulStripes(c int) int {
	s := m.NNZ() * c / tmulStripeWork
	if s < 2 {
		return 1
	}
	if s > tmulMaxStripes {
		return tmulMaxStripes
	}
	return s
}

// TMulDense returns mᵀ·x without materialising the transpose.
func (m *CSR) TMulDense(x *mat.Dense) *mat.Dense {
	out := mat.New(m.cols, x.Cols())
	m.tMulDenseAccum(out, x)
	return out
}

// TMulDenseInto computes out = mᵀ·x into caller-owned storage. out must be
// m.Cols()×x.Cols() and must not alias x.
func (m *CSR) TMulDenseInto(out, x *mat.Dense) {
	out.Zero()
	m.tMulDenseAccum(out, x)
}

// TMulDenseAddInto computes out += mᵀ·x — the fused accumulation the SpMM
// backward pass uses to land ∂L/∂X directly in the gradient buffer.
func (m *CSR) TMulDenseAddInto(out, x *mat.Dense) {
	m.tMulDenseAccum(out, x)
}

// tMulDenseAccum computes out += mᵀ·x. Transposed SpMM scatters into output
// rows selected by column index, so row sharding would race. Above the
// serial threshold the kernel splits m's rows into a shape-determined number
// of equal-nnz stripes, accumulates each stripe into a pooled partial
// buffer, and reduces the partials into out in fixed stripe order — the
// documented recipe for deterministic parallel scatter (ISSUE 7): every
// output cell sees the same additions in the same order for every worker
// count, including 1.
func (m *CSR) tMulDenseAccum(out, x *mat.Dense) {
	if m.rows != x.Rows() {
		panic(fmt.Sprintf("sparse: TMulDense dimension mismatch %dx%dᵀ · %dx%d", m.rows, m.cols, x.Rows(), x.Cols()))
	}
	c := x.Cols()
	if out.Rows() != m.cols || out.Cols() != c {
		panic(fmt.Sprintf("sparse: TMulDense output %dx%d, want %dx%d", out.Rows(), out.Cols(), m.cols, c))
	}
	spmmCalls.Add(1)
	spmmFlops.Add(2 * int64(m.NNZ()) * int64(c))
	s := m.tMulStripes(c)
	if s == 1 {
		m.tMulRange(out, x, 0, m.rows)
		return
	}

	// Equal-nnz stripe boundaries in row space, derived from rowPtr alone.
	bounds := make([]int, s+1)
	base, nnz := m.rowPtr[0], m.NNZ()
	bounds[s] = m.rows
	for st := 1; st < s; st++ {
		target := base + nnz*st/s
		bounds[st] = sort.SearchInts(m.rowPtr[:m.rows+1], target)
		if bounds[st] > m.rows {
			bounds[st] = m.rows
		}
	}
	sort.Ints(bounds) // guard monotonicity on pathological rowPtr plateaus

	partials := make([]*mat.Dense, s)
	mat.ParallelFor(s, 1, func(lo, hi int) {
		for st := lo; st < hi; st++ {
			buf := mat.GetDense(m.cols, c)
			buf.Zero()
			m.tMulRange(buf, x, bounds[st], bounds[st+1])
			partials[st] = buf
		}
	})

	// Deterministic reduction: out rows are disjoint across chunks and each
	// cell accumulates partials in ascending stripe order.
	od := out.Data()
	grain := tmulStripeWork/(s*c) + 1
	mat.ParallelFor(m.cols, grain, func(lo, hi int) {
		for st := 0; st < s; st++ {
			pd := partials[st].Data()
			for r := lo; r < hi; r++ {
				orow := od[r*c : (r+1)*c]
				prow := pd[r*c : (r+1)*c]
				for j := range orow {
					orow[j] += prow[j]
				}
			}
		}
	})
	for _, buf := range partials {
		mat.PutDense(buf)
	}
}

// tMulRange accumulates rows [lo, hi) of m into out += m[lo:hi]ᵀ·x[lo:hi].
func (m *CSR) tMulRange(out, x *mat.Dense, lo, hi int) {
	c := x.Cols()
	od := out.Data()
	xd := x.Data()
	for i := lo; i < hi; i++ {
		xrow := xd[i*c : (i+1)*c]
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			col := m.colIdx[k]
			mat.AXPYRow(od[col*c:(col+1)*c], m.vals[k], xrow)
		}
	}
}

// Transpose returns mᵀ as a new CSR matrix, built directly with one
// counting pass over the shard window (O(nnz + cols), no coordinate
// round-trip or re-sort).
func (m *CSR) Transpose() *CSR {
	nnz := m.NNZ()
	t := &CSR{rows: m.cols, cols: m.rows, rowPtr: make([]int, m.cols+1), colIdx: make([]int, nnz), vals: make([]float64, nnz)}
	lo, hi := m.rowPtr[0], m.rowPtr[m.rows]
	for k := lo; k < hi; k++ {
		t.rowPtr[m.colIdx[k]+1]++
	}
	for c := 0; c < m.cols; c++ {
		t.rowPtr[c+1] += t.rowPtr[c]
	}
	cursor := make([]int, m.cols)
	copy(cursor, t.rowPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			c := m.colIdx[k]
			pos := cursor[c]
			cursor[c]++
			t.colIdx[pos] = i
			t.vals[pos] = m.vals[k]
		}
	}
	return t
}

// IsSymmetric reports whether m equals its transpose within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if math.Abs(m.vals[k]-m.At(m.colIdx[k], i)) > tol {
				return false
			}
		}
	}
	return true
}

// GCNNormalize builds the renormalised propagation operator of Kipf & Welling
//
//	S̃ = D^{-1/2} (A + I) D^{-1/2},  D_ii = Σ_j (A+I)_ij
//
// from a square adjacency matrix A (§4.1 / eq. 7) in one linear pass: each
// output row is A's row with the unit self-loop merged into its sorted
// column position (added to an existing diagonal entry if present), then
// scaled. Rows whose degree is zero after self-loop insertion cannot occur
// (the self loop guarantees ≥1).
func GCNNormalize(a *CSR) (*CSR, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("sparse: GCNNormalize requires square adjacency, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	out := &CSR{rows: n, cols: n, rowPtr: make([]int, n+1), colIdx: make([]int, 0, a.NNZ()+n), vals: make([]float64, 0, a.NNZ()+n)}
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		inserted := false
		var d float64
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			c, v := a.colIdx[k], a.vals[k]
			switch {
			case c == i:
				v++
				inserted = true
			case c > i && !inserted:
				out.colIdx = append(out.colIdx, i)
				out.vals = append(out.vals, 1)
				d++
				inserted = true
			}
			out.colIdx = append(out.colIdx, c)
			out.vals = append(out.vals, v)
			d += v
		}
		if !inserted {
			out.colIdx = append(out.colIdx, i)
			out.vals = append(out.vals, 1)
			d++
		}
		deg[i] = d
		out.rowPtr[i+1] = len(out.colIdx)
	}
	invSqrt := make([]float64, n)
	for i, d := range deg {
		invSqrt[i] = 1 / math.Sqrt(d)
	}
	for i := 0; i < n; i++ {
		di := invSqrt[i]
		for k := out.rowPtr[i]; k < out.rowPtr[i+1]; k++ {
			out.vals[k] *= di * invSqrt[out.colIdx[k]]
		}
	}
	return out, nil
}

// RowSumNormalize returns D^{-1}A (mean aggregation, used by the
// GraphSAGE-style convolution in the FedSage+ baseline). Zero-degree rows are
// left as zero rows. Works on shard views: only the shard window is copied,
// and the result is a compact zero-based matrix.
func RowSumNormalize(a *CSR) *CSR {
	base := a.rowPtr[0]
	out := &CSR{
		rows:   a.rows,
		cols:   a.cols,
		rowPtr: make([]int, a.rows+1),
		colIdx: append([]int(nil), a.colIdx[base:a.rowPtr[a.rows]]...),
		vals:   append([]float64(nil), a.vals[base:a.rowPtr[a.rows]]...),
	}
	for i := 0; i <= a.rows; i++ {
		out.rowPtr[i] = a.rowPtr[i] - base
	}
	for i := 0; i < a.rows; i++ {
		var d float64
		for k := out.rowPtr[i]; k < out.rowPtr[i+1]; k++ {
			d += out.vals[k]
		}
		if d == 0 {
			continue
		}
		for k := out.rowPtr[i]; k < out.rowPtr[i+1]; k++ {
			out.vals[k] /= d
		}
	}
	return out
}
