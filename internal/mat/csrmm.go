package mat

import (
	"fmt"

	"fedomd/internal/telemetry"
)

// Sparse-left-operand product. A GCN's first layer multiplies the constant
// propagated features S̃X — a few percent nonzero on bag-of-words data — by a
// weight matrix. MatMulCSRInto runs that product over A's stored entries
// only, yet returns exactly what MatMulInto returns on the densified A: each
// output cell replays the dense kernel's accumulation schedule with the zero
// terms left out. Per cell (i, j) of an r×p output that schedule is
//
//   - k ascending, cut into kcBlock-deep blocks;
//   - one partial sum per block, started at +0: a fused multiply-add chain
//     for the cells the 4×8 AVX micro-kernel owns (useAVX, i < r&^3,
//     j < p&^7), a separate multiply and add for every other cell (the
//     mm4x4 / mmEdge cells);
//   - the partials folded into out in ascending block order, the first one
//     overwriting out unless the call accumulates.
//
// Leaving out a term a_ik = 0 changes nothing: c + 0·b = c for finite b
// unless c is −0, which a chain started at +0 reaches only through a product
// that underflows to −0. An empty block folds a +0 partial into out, whose
// only effect is −0 → +0; that fold commutes with every other, so the kernel
// applies it once per row. The T1 kernel (aᵀ·b) uses the same cell
// partition and block schedule over its own k, so this kernel on the CSR of
// Aᵀ reproduces MatMulT1Into/MatMulT1AddInto too.
//
// The unfused cells reuse axpyRow, so like it they assume the Go compiler
// keeps c += a*b as two roundings; it fuses such expressions only when
// built with GOAMD64=v3 or above.

// Process-global telemetry: sparse-operand product calls and their work
// (one multiply-add per stored entry per output column, 2 FLOPs).
var (
	csrmmCalls = telemetry.NewCounter("mat/csrmm_calls")
	csrmmFlops = telemetry.NewCounter("mat/csrmm_flops")
)

// MatMulCSRInto computes out = A·b, or out += A·b when accum is set, for a
// sparse A given in CSR form: row i of A stores the values
// vals[rowPtr[i]:rowPtr[i+1]] at the strictly ascending columns
// colIdx[rowPtr[i]:rowPtr[i+1]], all below b.Rows(). rowPtr has out.Rows()+1
// entries and may start at a nonzero offset (a row-range view). For finite b
// the result is bit-identical to MatMulInto (accum off) or MatMulAddInto
// (accum on) on the densified A, for every worker count. out must not alias
// b.
func MatMulCSRInto(out *Dense, rowPtr, colIdx []int, vals []float64, b *Dense, accum bool) {
	rows, p := out.rows, b.cols
	if len(rowPtr) != rows+1 || out.cols != p {
		panic(fmt.Sprintf("mat: MatMulCSRInto output %dx%d for %d CSR rows · %dx%d", out.rows, out.cols, len(rowPtr)-1, b.rows, b.cols))
	}
	nnz := rowPtr[rows] - rowPtr[0]
	csrmmCalls.Add(1)
	csrmmFlops.Add(2 * int64(nnz) * int64(p))
	work := nnz * p
	if work < parallelThreshold {
		csrMatMulRows(out, rowPtr, colIdx, vals, b, 0, rows, accum)
		return
	}
	ParallelFor(rows, parGrain(work/rows+1), func(lo, hi int) {
		csrMatMulRows(out, rowPtr, colIdx, vals, b, lo, hi, accum)
	})
}

// csrMatMulRows computes rows [lo, hi) of out (+)= A·b on the per-cell
// schedule described above. Every row is computed whole by one call, so the
// result does not depend on how rows are split over workers.
func csrMatMulRows(out *Dense, rowPtr, colIdx []int, vals []float64, b *Dense, lo, hi int, accum bool) {
	n, p := b.rows, b.cols
	bd := b.data
	fmaRows := 0
	if useAVX {
		fmaRows = out.rows &^ (microDim - 1)
	}
	part := GetDense(1, p) // block-partial scratch
	for i := lo; i < hi; i++ {
		orow := out.data[i*p : (i+1)*p]
		fc := 0 // columns [0, fc) take the fused chain
		if i < fmaRows {
			fc = p &^ (simdCols - 1)
		}
		e, end := rowPtr[i], rowPtr[i+1]
		started := accum // orow holds a value the next partial folds into
		zeroFold := false
		for k0 := 0; k0 < n; k0 += kcBlock {
			k1 := min(k0+kcBlock, n)
			s := e
			for e < end && colIdx[e] >= k0 && colIdx[e] < k1 {
				e++
			}
			if s == e {
				if started {
					zeroFold = true
				} else {
					clear(orow)
					started = true
				}
				continue
			}
			acc := orow
			if started {
				acc = part.data
			}
			clear(acc)
			fmaBlock(acc[:fc], bd, p, colIdx[s:e], vals[s:e])
			if fc < p {
				for ; s < e; s++ {
					k := colIdx[s]
					axpyRow(acc[fc:], vals[s], bd[k*p+fc:(k+1)*p])
				}
			}
			if started {
				for j, v := range acc {
					orow[j] += v
				}
			}
			started = true
		}
		if e != end {
			panic(fmt.Sprintf("mat: MatMulCSRInto row %d: column indices not ascending within [0,%d)", i, n))
		}
		if !started {
			clear(orow) // inner dimension 0, not accumulating
		}
		if zeroFold {
			for j, v := range orow {
				if v == 0 {
					orow[j] = 0 // −0 + +0 = +0
				}
			}
		}
	}
	PutDense(part)
}

// fmaBlock runs the fused chains of cells [0, len(acc)) — a multiple of
// simdCols — over one block's entries: acc[j] = fma(vals[q], b[idx[q]][j],
// acc[j]) for q ascending. Only AVX hosts have fused cells.
func fmaBlock(acc, bd []float64, p int, idx []int, vals []float64) {
	c := 0
	for ; c+4*simdCols <= len(acc); c += 4 * simdCols {
		csrFMA32(&acc[c], &bd[c], p, &idx[0], &vals[0], len(idx))
	}
	for ; c < len(acc); c += simdCols {
		csrFMA8(&acc[c], &bd[c], p, &idx[0], &vals[0], len(idx))
	}
}
