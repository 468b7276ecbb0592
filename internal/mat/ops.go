package mat

import (
	"fmt"
	"math"
)

// Add returns a + b element-wise.
func Add(a, b *Dense) *Dense {
	a.mustSameShape(b, "Add")
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v + b.data[i]
	}
	return out
}

// Sub returns a - b element-wise.
func Sub(a, b *Dense) *Dense {
	a.mustSameShape(b, "Sub")
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v - b.data[i]
	}
	return out
}

// MulElem returns the Hadamard (element-wise) product a ⊙ b.
func MulElem(a, b *Dense) *Dense {
	a.mustSameShape(b, "MulElem")
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v * b.data[i]
	}
	return out
}

// Scale returns s * a.
func Scale(s float64, a *Dense) *Dense {
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = s * v
	}
	return out
}

// AddInPlace computes m += b in place.
func (m *Dense) AddInPlace(b *Dense) {
	m.mustSameShape(b, "AddInPlace")
	for i := range m.data {
		m.data[i] += b.data[i]
	}
}

// SubInPlace computes m -= b in place.
func (m *Dense) SubInPlace(b *Dense) {
	m.mustSameShape(b, "SubInPlace")
	for i := range m.data {
		m.data[i] -= b.data[i]
	}
}

// ScaleInPlace computes m *= s in place.
func (m *Dense) ScaleInPlace(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AXPY computes m += alpha*b in place (the BLAS axpy update). b must not
// alias m (enforced by fedomdvet's intoalias analyzer); the contract keeps
// the loop free to be blocked or vectorized.
func (m *Dense) AXPY(alpha float64, b *Dense) {
	m.mustSameShape(b, "AXPY")
	for i := range m.data {
		m.data[i] += alpha * b.data[i]
	}
}

// Apply returns a new matrix with f applied to every element of a.
func Apply(a *Dense, f func(float64) float64) *Dense {
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = f(v)
	}
	return out
}

// AddRowVec returns a + v broadcast over rows, where v is 1×c.
func AddRowVec(a, v *Dense) *Dense {
	if v.rows != 1 || v.cols != a.cols {
		panic(fmt.Sprintf("mat: AddRowVec wants 1x%d vector, got %dx%d", a.cols, v.rows, v.cols))
	}
	out := New(a.rows, a.cols)
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		o := out.Row(i)
		for j, x := range row {
			o[j] = x + v.data[j]
		}
	}
	return out
}

// SubRowVec returns a - v broadcast over rows, where v is 1×c.
func SubRowVec(a, v *Dense) *Dense {
	if v.rows != 1 || v.cols != a.cols {
		panic(fmt.Sprintf("mat: SubRowVec wants 1x%d vector, got %dx%d", a.cols, v.rows, v.cols))
	}
	out := New(a.rows, a.cols)
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		o := out.Row(i)
		for j, x := range row {
			o[j] = x - v.data[j]
		}
	}
	return out
}

// MeanRows returns the 1×c column-wise mean of a. A 0-row input yields zeros.
func MeanRows(a *Dense) *Dense {
	out := New(1, a.cols)
	if a.rows == 0 {
		return out
	}
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			out.data[j] += v
		}
	}
	inv := 1 / float64(a.rows)
	for j := range out.data {
		out.data[j] *= inv
	}
	return out
}

// SumRows returns the 1×c column-wise sum of a.
func SumRows(a *Dense) *Dense {
	out := New(1, a.cols)
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// Sum returns the sum of every element of a.
func Sum(a *Dense) float64 {
	var s float64
	for _, v := range a.data {
		s += v
	}
	return s
}

// Max returns the largest element of a; -Inf for an empty matrix.
func Max(a *Dense) float64 {
	m := math.Inf(-1)
	for _, v := range a.data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the smallest element of a; +Inf for an empty matrix.
func Min(a *Dense) float64 {
	m := math.Inf(1)
	for _, v := range a.data {
		if v < m {
			m = v
		}
	}
	return m
}

// FrobNorm returns the Frobenius norm ‖a‖_F.
func FrobNorm(a *Dense) float64 {
	var s float64
	for _, v := range a.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// FrobNormSq returns ‖a‖²_F.
func FrobNormSq(a *Dense) float64 {
	var s float64
	for _, v := range a.data {
		s += v * v
	}
	return s
}

// Dot returns the Frobenius inner product <a, b> = Σ a_ij b_ij.
func Dot(a, b *Dense) float64 {
	a.mustSameShape(b, "Dot")
	var s float64
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
}

// PowElem returns a with every element raised to the integer power p.
// Integer powers are computed by repeated multiplication, so negative bases
// are handled exactly (needed for odd central moments).
func PowElem(a *Dense, p int) *Dense {
	out := New(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = ipow(v, p)
	}
	return out
}

func ipow(x float64, p int) float64 {
	r := 1.0
	for k := 0; k < p; k++ {
		r *= x
	}
	return r
}

// --- *Into variants: results land in caller-owned (typically pooled)
// storage. Each panics on a shape mismatch; out must not alias the inputs
// unless noted. Fused *AddInto kernels accumulate without a temporary, which
// is what lets backward passes write straight into gradient buffers. ---

// AddInto computes out = a + b.
func AddInto(out, a, b *Dense) {
	a.mustSameShape(b, "AddInto")
	out.mustSameShape(a, "AddInto")
	for i, v := range a.data {
		out.data[i] = v + b.data[i]
	}
}

// SubInto computes out = a - b.
func SubInto(out, a, b *Dense) {
	a.mustSameShape(b, "SubInto")
	out.mustSameShape(a, "SubInto")
	for i, v := range a.data {
		out.data[i] = v - b.data[i]
	}
}

// MulElemInto computes out = a ⊙ b.
func MulElemInto(out, a, b *Dense) {
	a.mustSameShape(b, "MulElemInto")
	out.mustSameShape(a, "MulElemInto")
	for i, v := range a.data {
		out.data[i] = v * b.data[i]
	}
}

// MulElemAddInto computes out += a ⊙ b — the fused Hadamard accumulation the
// Mul/Dropout backward passes use instead of materialising the product.
func MulElemAddInto(out, a, b *Dense) {
	a.mustSameShape(b, "MulElemAddInto")
	out.mustSameShape(a, "MulElemAddInto")
	for i, v := range a.data {
		out.data[i] += v * b.data[i]
	}
}

// ScaleInto computes out = s·a.
func ScaleInto(out *Dense, s float64, a *Dense) {
	out.mustSameShape(a, "ScaleInto")
	for i, v := range a.data {
		out.data[i] = s * v
	}
}

// ApplyInto computes out = f(a) element-wise. out may alias a.
func ApplyInto(out, a *Dense, f func(float64) float64) {
	out.mustSameShape(a, "ApplyInto")
	for i, v := range a.data {
		out.data[i] = f(v)
	}
}

// AddRowVecInto computes out = a + v broadcast over rows (v is 1×c).
func AddRowVecInto(out, a, v *Dense) {
	if v.rows != 1 || v.cols != a.cols {
		panic(fmt.Sprintf("mat: AddRowVecInto wants 1x%d vector, got %dx%d", a.cols, v.rows, v.cols))
	}
	out.mustSameShape(a, "AddRowVecInto")
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		o := out.Row(i)
		for j, x := range row {
			o[j] = x + v.data[j]
		}
	}
}

// SubRowVecInto computes out = a - v broadcast over rows (v is 1×c).
func SubRowVecInto(out, a, v *Dense) {
	if v.rows != 1 || v.cols != a.cols {
		panic(fmt.Sprintf("mat: SubRowVecInto wants 1x%d vector, got %dx%d", a.cols, v.rows, v.cols))
	}
	out.mustSameShape(a, "SubRowVecInto")
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		o := out.Row(i)
		for j, x := range row {
			o[j] = x - v.data[j]
		}
	}
}

// AXPYRowBroadcast computes m[i,:] += alpha·v for every row i, where v is
// 1×c — the fused MeanRows/broadcast backward update. v must not alias m.
func (m *Dense) AXPYRowBroadcast(alpha float64, v *Dense) {
	if v.rows != 1 || v.cols != m.cols {
		panic(fmt.Sprintf("mat: AXPYRowBroadcast wants 1x%d vector, got %dx%d", m.cols, v.rows, v.cols))
	}
	for i := 0; i < m.rows; i++ {
		axpyRow(m.Row(i), alpha, v.data)
	}
}

// MeanRowsInto computes the 1×c column-wise mean of a into out. A 0-row
// input yields zeros.
func MeanRowsInto(out, a *Dense) {
	if out.rows != 1 || out.cols != a.cols {
		panic(fmt.Sprintf("mat: MeanRowsInto wants 1x%d output, got %dx%d", a.cols, out.rows, out.cols))
	}
	out.Zero()
	if a.rows == 0 {
		return
	}
	for i := 0; i < a.rows; i++ {
		axpyRow(out.data, 1, a.Row(i))
	}
	inv := 1 / float64(a.rows)
	for j := range out.data {
		out.data[j] *= inv
	}
}

// SumRowsAXPY computes out += alpha·colsum(a) with out a 1×c vector — the
// fused bias-gradient update of the row-broadcast ops.
func SumRowsAXPY(out *Dense, alpha float64, a *Dense) {
	if out.rows != 1 || out.cols != a.cols {
		panic(fmt.Sprintf("mat: SumRowsAXPY wants 1x%d output, got %dx%d", a.cols, out.rows, out.cols))
	}
	for i := 0; i < a.rows; i++ {
		axpyRow(out.data, alpha, a.Row(i))
	}
}

// PowElemInto computes out = a^p element-wise by repeated multiplication.
func PowElemInto(out, a *Dense, p int) {
	out.mustSameShape(a, "PowElemInto")
	for i, v := range a.data {
		out.data[i] = ipow(v, p)
	}
}

// IPow raises x to the non-negative integer power p by repeated
// multiplication, handling negative bases exactly (odd central moments).
func IPow(x float64, p int) float64 { return ipow(x, p) }

// SelectRowsInto copies m's idx[i]-th row into out's i-th row.
func (m *Dense) SelectRowsInto(out *Dense, idx []int) {
	if out.rows != len(idx) || out.cols != m.cols {
		panic(fmt.Sprintf("mat: SelectRowsInto output %dx%d, want %dx%d", out.rows, out.cols, len(idx), m.cols))
	}
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
}

// ArgmaxRows returns, for each row, the index of its largest element.
func ArgmaxRows(a *Dense) []int { return ArgmaxRowsInto(nil, a) }

// ArgmaxRowsInto is ArgmaxRows writing into out's storage, grown when it is
// shorter than a's row count; it returns the filled slice.
func ArgmaxRowsInto(out []int, a *Dense) []int {
	if out == nil || cap(out) < a.rows {
		out = make([]int, a.rows)
	}
	out = out[:a.rows]
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		best, bi := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}
