//go:build amd64

package optics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// kernelDigest returns a SHA-256 over every weight and kernel coefficient of
// the model, nominal set then defocus set: per kernel its weight, then its
// coefficients (real, imaginary), each as little-endian float64 bits.
func kernelDigest(m *Model) string {
	h := sha256.New()
	var b [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	for _, ks := range []*KernelSet{m.Nominal, m.Defocus} {
		for k, kern := range ks.Kernels {
			put(ks.Weights[k])
			for _, v := range kern.Data {
				put(real(v))
				put(imag(v))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelBitsPinned guards every kernel bit: they feed every mask
// downstream, so a faster synthesis must reproduce them exactly. The
// digests were recorded from the dense subspace iteration that the packed,
// four-vector products replaced; at paper scale (Default) the same digest
// is 51159df9825e200277d88e55f1dd18839bf71d827fb02a8be403165dc71ee936,
// checked by hand because the build is too slow for this suite. The digests
// are amd64 bits (the compiler does not fuse multiply-adds there at any
// GOAMD64 level); targets that fuse them (arm64, ppc64le, s390x, ...)
// compute other, equally valid kernels, so the file builds only on amd64.
func TestKernelBitsPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		c      Config
		digest string
	}{
		{"TestScale", TestScale(), "9517e5d86709e33c6aec0241e351d8233046e4815cb29160eaa5785ee5b5bbb6"},
		{"iltbench", iltbenchScale(), "2bb0d71ebdb4ec52d6e1139db00e1b6da517335ae1996b85f93a1dfbf9954723"},
	} {
		m, err := BuildModel(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if got := kernelDigest(m); got != tc.digest {
			t.Errorf("%s kernel digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}
