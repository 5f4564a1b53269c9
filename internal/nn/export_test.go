package nn

import "testing"

// SetUseAVX is setUseAVX for the external test package; it reports whether
// the AVX kernels are now on.
func SetUseAVX(t testing.TB, on bool) bool {
	setUseAVX(t, on)
	return useAVX
}
