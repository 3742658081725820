package telemetry

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/fft"
)

// HostInfo is the host/CPU block of a run manifest. Benchmark artifacts
// (BENCH_*.json) embed the same block so timing files stay
// self-describing across machines. FFTKernel names the butterfly kernel
// the batch FFT engine runs on this host (fft.Kernel: "avx" or
// "generic"), so a timing taken on the portable fallback says so.
type HostInfo struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Hostname   string `json:"hostname,omitempty"`
	FFTKernel  string `json:"fft_kernel"`
}

// Host snapshots the current host.
func Host() HostInfo {
	h := HostInfo{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		FFTKernel:  fft.Kernel(),
	}
	if name, err := os.Hostname(); err == nil {
		h.Hostname = name
	}
	return h
}

// cpuModel best-efforts the CPU model name (Linux /proc/cpuinfo; empty
// elsewhere — the field is omitempty).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// GitRevision resolves the source revision of the running binary: first
// from the build info VCS stamp (present in `go build` of a checkout),
// falling back to reading .git/HEAD upward from the working directory
// (covers `go run` and `go test`, which skip VCS stamping).
func GitRevision() (rev string, dirty bool) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev != "" {
		return rev, dirty
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", false
	}
	for d := dir; ; {
		if r := readGitHead(filepath.Join(d, ".git")); r != "" {
			return r, false
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", false
		}
		d = parent
	}
}

// readGitHead resolves HEAD inside one .git directory (direct hash,
// loose ref file, or packed-refs entry); empty when unresolvable.
func readGitHead(gitDir string) string {
	b, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head // detached HEAD: a bare hash
	}
	if rb, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(rb))
	}
	pb, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(pb), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && strings.TrimSpace(name) == ref {
			return hash
		}
	}
	return ""
}
