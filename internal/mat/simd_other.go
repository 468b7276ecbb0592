//go:build !amd64

package mat

// Non-amd64 builds run the pure-Go blocked kernels everywhere.
const useAVX = false

func mmAVX4x8(po, pa, pb *float64, ldo, lda, ldb, kl int, accum bool) {
	panic("mat: SIMD kernel called on non-amd64 build")
}

func mmT1AVX4x8(po, pa, pb *float64, ldo, lda, ldb, kl int, accum bool) {
	panic("mat: SIMD kernel called on non-amd64 build")
}

func mmT2AVX2x4(po, pa, pb *float64, ldo, lda, ldb, kl int, accum bool) {
	panic("mat: SIMD kernel called on non-amd64 build")
}

func axpyAVX(dst, src *float64, alpha float64, n int) {
	panic("mat: SIMD kernel called on non-amd64 build")
}

func csrFMA32(acc, b *float64, ldb int, idx *int, vals *float64, n int) {
	panic("mat: SIMD kernel called on non-amd64 build")
}

func csrFMA8(acc, b *float64, ldb int, idx *int, vals *float64, n int) {
	panic("mat: SIMD kernel called on non-amd64 build")
}
