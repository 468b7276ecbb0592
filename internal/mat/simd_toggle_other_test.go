//go:build !amd64

package mat

// withAVX runs fn when SIMD is requested off; this build has no SIMD
// kernels, so a request to switch them on reports false without running fn.
func withAVX(on bool, fn func()) bool {
	if on {
		return false
	}
	fn()
	return true
}
