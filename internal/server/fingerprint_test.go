package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// fingerprintPerPixel is maskFingerprint's oracle: the same byte stream,
// handed to the hash one value at a time.
func fingerprintPerPixel(m *grid.Mat) string {
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(m.W))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(m.H))
	h.Write(hdr[:])
	var buf [8]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMaskFingerprintChunked: hashing in 64 KiB chunks gives the per-pixel
// digest, on masks from one pixel to several chunks, with the last chunk
// full or partial — random values, binary values and a signed zero
// included.
func TestMaskFingerprintChunked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sz := range [][2]int{{1, 1}, {37, 5}, {64, 128}, {512, 512}, {300, 301}} {
		m := grid.NewMat(sz[0], sz[1])
		for i := range m.Data {
			m.Data[i] = rng.Float64()
			if i%3 == 0 {
				m.Data[i] = float64(rng.Intn(2))
			}
		}
		m.Data[0] = math.Copysign(0, -1)
		if got, want := maskFingerprint(m), fingerprintPerPixel(m); got != want {
			t.Errorf("%dx%d: chunked digest %s, per-pixel %s", sz[0], sz[1], got, want)
		}
	}
}
