//go:build !amd64

package tensor

// defaultTileMR is 2 off amd64: 2×4 is the widest pure-Go tile whose
// accumulators stay resident in sixteen float registers.
const defaultTileMR = 2

// mm4x4tile is never called when the tile is 2×4; the stub keeps the
// drivers' call sites building on every architecture.
func mm4x4tile(ap, bp *float64, k int, c *float64, ldc int, accum int) {
	panic("tensor: mm4x4tile is amd64-only")
}
