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
// downstream, so a change to kernel synthesis that moves them re-pins them
// and says why. The digests were recorded from the Gram-matrix solve
// (tccEigenpairs). They are amd64 bits (the compiler does not fuse
// multiply-adds there at any GOAMD64 level); targets that fuse them (arm64,
// ppc64le, s390x, ...) compute other, equally valid kernels, so the file
// builds only on amd64.
func TestKernelBitsPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		c      Config
		digest string
	}{
		{"TestScale", TestScale(), "ec9f952f632c1de9da2dd9531f7f7264a4b7b1bdec9cae7779d5d68cd6aa3d9b"},
		{"iltbench", iltbenchScale(), "5f849e9abe0e55ffef461decc1292d0c1271b4de74211f7eed3f14dbf4363da1"},
		{"paper", Default(), "adf6404353d7af09b61028c21738f96a8d950120c9b7880463b149a63e59f7f2"},
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
