package bulkload

import (
	"testing"

	"bayestree/internal/core"
	"bayestree/internal/dataset"
)

// GoldenInput is one of goldenInputs' populations and its configuration.
type GoldenInput struct {
	DS  *dataset.Dataset
	Cfg core.Config
}

// GoldenInputs exposes goldenInputs to the external test package, whose
// tests train forests through eval, which imports this package.
func GoldenInputs(t *testing.T) map[string]GoldenInput {
	out := make(map[string]GoldenInput)
	for name, in := range goldenInputs(t) {
		out[name] = GoldenInput{DS: in.ds, Cfg: in.cfg}
	}
	return out
}
