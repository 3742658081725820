//go:build !amd64

package fft

const useAVX = false

func bflyStage4(x []complex128, half, j0 int, tw []complex128, nz []bool) {
	stage4Generic(x, half, j0, tw, nz)
}

func foldBlock(fb []float64, cb []complex128, w float64) {
	foldGeneric(fb, cb, w)
}

func gatherBlock(band, amp []complex128, d []float64, rev []int32, y0 int) {
	gatherGeneric(band, amp, d, rev, y0)
}
