//go:build !amd64

package nn

// useAVX is always false off amd64, so the stubs below can never be
// reached; it is a var only so tests compile the same toggle everywhere.
var useAVX = false

// useAVX512 is false for the same reason.
var useAVX512 = false

func matmulTile816AVX512(c *float64, cStride int, a *float64, aStride int, bPack *float64, k int) {
	panic("nn: vectorized matmul kernel is amd64-only")
}

func matmulTile48AVX(c *float64, cStride int, aPack *float64, b *float64, k int) {
	panic("nn: vectorized matmul kernel is amd64-only")
}

func rowAcc32AVX(c *float64, a *float64, aStride int, b *float64, bStride int, k int) {
	panic("nn: vectorized matmul kernel is amd64-only")
}

func rowAccTailAVX(c *float64, mask *uint64, a *float64, aStride int, b *float64, bStride int, k int) {
	panic("nn: vectorized matmul kernel is amd64-only")
}

func rowAcc4x8AVX512(c *float64, cStride int, a *float64, aRow int, aK int, b *float64, bStride int, k int, mask int) {
	panic("nn: vectorized matmul kernel is amd64-only")
}

func rowAcc4x16AVX512(c *float64, cStride int, a *float64, aRow int, aK int, b *float64, bStride int, k int, mask int) {
	panic("nn: vectorized matmul kernel is amd64-only")
}

func rowAcc4x32AVX512(c *float64, cStride int, a *float64, aRow int, aK int, b *float64, bStride int, k int, mask int) {
	panic("nn: vectorized matmul kernel is amd64-only")
}

func matmulTile4NAVX(c *float64, cStride int, aPack *float64, b *float64, k int, nc int) {
	panic("nn: vectorized matmul kernel is amd64-only")
}

func packPanel4AVX(pack *float64, a *float64, k int, stride int) {
	panic("nn: vectorized matmul kernel is amd64-only")
}

func biasActAVX(z, y, b *float64, rows, cols int, slope float64, keep uint64) {
	panic("nn: vectorized element-wise kernel is amd64-only")
}

func mulDerivAVX(dz, up, z, y *float64, n int, form int, thresh, slope float64) {
	panic("nn: vectorized element-wise kernel is amd64-only")
}

func adamStepAVX(p, grad, m, v *float64, n int, c *[8]float64) {
	panic("nn: vectorized element-wise kernel is amd64-only")
}

func softUpdateAVX(dst, src *float64, n int, tau, rest float64) {
	panic("nn: vectorized element-wise kernel is amd64-only")
}
