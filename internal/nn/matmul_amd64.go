//go:build amd64

package nn

// useAVX reports whether the vectorized matmul kernels may run: the CPU
// must support AVX and the OS must preserve ymm state across context
// switches (OSXSAVE set and XCR0 enabling xmm+ymm). The kernels are
// bit-identical to the scalar paths, so this is purely a speed switch; only
// tests assign it, to run both sides on one host.
var useAVX = func() bool {
	_, _, ecx, _ := cpuidex(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	eax, _ := xgetbv0()
	return eax&0x6 == 0x6
}()

// useAVX512 reports whether the AVX-512F tile may run on top of the AVX
// kernels: CPUID leaf 7 must report AVX512F and the OS must preserve the
// opmask and full zmm state (XCR0 bits 1, 2 and 5–7). Like useAVX it only
// picks the speed of bit-identical paths; only tests assign it.
var useAVX512 = func() bool {
	if !useAVX {
		return false
	}
	if maxLeaf, _, _, _ := cpuidex(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuidex(7, 0)
	const avx512f = 1 << 16
	if ebx&avx512f == 0 {
		return false
	}
	eax, _ := xgetbv0()
	return eax&0xE6 == 0xE6
}()

// matmulTile816AVX512 computes an 8-row × 16-column output tile from eight
// A rows read in place and a packed B panel; see matmul_amd64.s for the
// layout and bit-identity contract.
//
//go:noescape
func matmulTile816AVX512(c *float64, cStride int, a *float64, aStride int, bPack *float64, k int)

// matmulTile48AVX computes a 4-row × 8-column output tile from a packed A
// panel; see matmul_amd64.s for the layout and bit-identity contract.
//
//go:noescape
func matmulTile48AVX(c *float64, cStride int, aPack *float64, b *float64, k int)

// matmulTile4NAVX is the same tile nc columns wide, 1 ≤ nc ≤ 7: narrow
// heads and the column tail.
//
//go:noescape
func matmulTile4NAVX(c *float64, cStride int, aPack *float64, b *float64, k int, nc int)

// packPanel4AVX packs the four length-k rows at a into a column-interleaved
// panel, pack[kk*stride+l] = a[l*k+kk]: at stride 4 the A panel of the AVX
// tiles, at stride 16 a quarter of the zmm tile's B panel.
//
//go:noescape
func packPanel4AVX(pack *float64, a *float64, k int, stride int)

// rowAcc32AVX accumulates c[j] += Σ_kk a[kk·aStride]·b[kk·bStride+j] for
// j in [0,32) and kk in [0,k), k > 0; rowAccTailAVX does the same for the
// columns whose lane mask at mask[0:16] is set. See matmul_amd64.s for the
// bit-identity contract.
//
//go:noescape
func rowAcc32AVX(c *float64, a *float64, aStride int, b *float64, bStride int, k int)

//go:noescape
func rowAccTailAVX(c *float64, mask *uint64, a *float64, aStride int, b *float64, bStride int, k int)

// rowAcc4x8AVX512, rowAcc4x16AVX512 and rowAcc4x32AVX512 accumulate four
// rows of c at once, c[r][j] += Σ_kk a[r·aRow+kk·aK]·b[kk·bStride+j], for
// the 1–8, 9–16 or 25–32 columns j of one block; mask holds the live lanes
// of the block's last eight columns. See matmul_amd64.s for the
// bit-identity contract.
//
//go:noescape
func rowAcc4x8AVX512(c *float64, cStride int, a *float64, aRow int, aK int, b *float64, bStride int, k int, mask int)

//go:noescape
func rowAcc4x16AVX512(c *float64, cStride int, a *float64, aRow int, aK int, b *float64, bStride int, k int, mask int)

//go:noescape
func rowAcc4x32AVX512(c *float64, cStride int, a *float64, aRow int, aK int, b *float64, bStride int, k int, mask int)

// The element-wise passes of a training step, each bit-identical to the Go
// loop beside its call; see elementwise_amd64.s. Lengths are the caller's
// to check and must be positive.
//
//go:noescape
func biasActAVX(z, y, b *float64, rows, cols int, slope float64, keep uint64)

//go:noescape
func mulDerivAVX(dz, up, z, y *float64, n int, form int, thresh, slope float64)

//go:noescape
func adamStepAVX(p, grad, m, v *float64, n int, c *[8]float64)

//go:noescape
func softUpdateAVX(dst, src *float64, n int, tau, rest float64)

func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)
