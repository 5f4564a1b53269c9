package nn

import "testing"

// SetKernels is setKernels for the external test package.
func SetKernels(t testing.TB, avx, avx512 bool) bool { return setKernels(t, avx, avx512) }
