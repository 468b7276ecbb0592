//go:build amd64

package mat

// withAVX runs fn with the SIMD kernels switched on (when the CPU has them)
// or off, so tests pin the fused and the unfused schedules on one host. It
// reports whether the requested setting took effect.
func withAVX(on bool, fn func()) bool {
	if on && !cpuHasAVX2FMA() {
		return false
	}
	old := useAVX
	useAVX = on
	defer func() { useAVX = old }()
	fn()
	return true
}
