package server_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestJobRequestEngineField pins the submit-time validation of the
// "engine" field: every litho.ParseEngine spelling is accepted verbatim
// (including the empty default), everything else — the retired band
// engines, wrong case, stray whitespace, aliases — is rejected at
// ParseJobRequest with an error that names exactly the two valid engines,
// so a bad or stale job never reaches the queue.
func TestJobRequestEngineField(t *testing.T) {
	parse := func(engineJSON string) (*server.JobSpec, error) {
		t.Helper()
		body := fmt.Sprintf(`{"case":1,"engine":%q}`, engineJSON)
		return server.ParseJobRequest([]byte(body), server.Limits{})
	}

	for _, eng := range []string{"", "batch", "reference"} {
		spec, err := parse(eng)
		if err != nil {
			t.Errorf("engine %q rejected: %v", eng, err)
			continue
		}
		if spec.Req.Engine != eng {
			t.Errorf("engine %q resolved to spec engine %q; the spec must keep the submitted spelling", eng, spec.Req.Engine)
		}
	}

	for _, eng := range []string{
		"band", "band-inverse",
		"warp", "dense", "ref",
		"Batch", "BATCH", "REFERENCE",
		" batch", "batch ", "batch_reference", "batch,reference",
	} {
		spec, err := parse(eng)
		if err == nil {
			t.Errorf("engine %q accepted (spec %+v); want submit-time rejection", eng, spec.Req)
			continue
		}
		if msg := err.Error(); !strings.HasSuffix(msg, "(want batch or reference)") {
			t.Errorf("engine %q: error %q does not name exactly batch and reference", eng, msg)
		}
	}
}
