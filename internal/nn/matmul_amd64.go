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

// matmulTile48AVX computes a 4-row × 8-column output tile from a packed A
// panel; see matmul_amd64.s for the layout and bit-identity contract.
//
//go:noescape
func matmulTile48AVX(c *float64, cStride int, aPack *float64, b *float64, k int)

// rowAcc32AVX accumulates c[j] += Σ_kk a[kk·aStride]·b[kk·bStride+j] for
// j in [0,32) and kk in [0,k), k > 0; rowAccTailAVX does the same for the
// columns whose lane mask at mask[0:16] is set. See matmul_amd64.s for the
// bit-identity contract.
//
//go:noescape
func rowAcc32AVX(c *float64, a *float64, aStride int, b *float64, bStride int, k int)

//go:noescape
func rowAccTailAVX(c *float64, mask *uint64, a *float64, aStride int, b *float64, bStride int, k int)

func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)
