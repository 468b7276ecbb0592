//go:build amd64

package mat

// SIMD micro-kernels (matmul_amd64.s): AVX2+FMA 4×8 register tiles for the
// plain and aᵀ·b products. Selected at process start from CPUID; the pure-Go
// mm4x4 path remains as the fallback and as the edge-tile kernel either way.
// useAVX is fixed for the life of the process, so the SIMD/scalar cell
// partition is a pure function of matrix shape — a requirement of the
// bit-identical-across-worker-counts contract (see matmul.go).
var useAVX = cpuHasAVX2FMA()

// cpuHasAVX2FMA reports whether the CPU and OS support AVX2 and FMA
// (CPUID feature bits plus XGETBV-confirmed YMM state saving).
func cpuHasAVX2FMA() bool

// mmAVX4x8 computes the 4×8 tile out[0:4][0:8] (+)= a(4×kl)·b(kl×8).
// po/pa/pb point at the tile origins; ldo/lda/ldb are row strides in
// float64s; kl is the inner-dimension length for this k-block. Row r of a is
// read at pa[r*lda+t]; each output cell accumulates over t in ascending
// order with fused multiply-add, one chain per cell.
//
//go:noescape
func mmAVX4x8(po, pa, pb *float64, ldo, lda, ldb, kl int, accum bool)

// mmT1AVX4x8 is the transposed-A variant: out[0:4][0:8] (+)=
// a[0:kl][0:4]ᵀ·b(kl×8). The four a values per k step are contiguous
// (pa[t*lda+r]), so the kernel broadcasts from consecutive memory instead of
// a strided column walk.
//
//go:noescape
func mmT1AVX4x8(po, pa, pb *float64, ldo, lda, ldb, kl int, accum bool)

// mmT2AVX2x4 is the transposed-B variant: out[0:2][0:4] (+)=
// a(2×kl)·b(4×kl)ᵀ, eight simultaneous dot products with a fixed 4-lane
// reduction order and a scalar tail for kl mod 4 (order depends only on kl).
//
//go:noescape
func mmT2AVX2x4(po, pa, pb *float64, ldo, lda, ldb, kl int, accum bool)

// axpyAVX computes dst[0:n] += alpha*src[0:n] (n a multiple of 4) with
// separate multiply and add — bit-identical to the scalar loop, so the
// dispatch in axpyRow is invisible to results.
//
//go:noescape
func axpyAVX(dst, src *float64, alpha float64, n int)

// csrFMA32 runs the FMA chains of 32 output cells over one k-block of a
// sparse row: acc[0:32] = fma(vals[e], b[idx[e]*ldb+j], acc[j]) for
// e = 0..n-1 in order, the accumulators register-resident throughout. Each
// cell takes the single-rounding steps of the 4×8 micro-kernels, so the
// sparse-operand kernel (csrmm.go) replays their chains bit for bit. Every
// idx[e] must be a valid row of b.
//
//go:noescape
func csrFMA32(acc, b *float64, ldb int, idx *int, vals *float64, n int)

// csrFMA8 is csrFMA32 for an 8-cell strip.
//
//go:noescape
func csrFMA8(acc, b *float64, ldb int, idx *int, vals *float64, n int)
