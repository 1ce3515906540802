package core

import (
	"testing"

	"soral/internal/model"
)

// Hooks for the external tests of package core_test, which build the
// benchmark's scenarios through eval; eval imports core, so the tests of
// package core itself cannot.

// StructuredNetwork is one built network of structuredCases.
type StructuredNetwork struct {
	Name string
	Net  *model.Network
	In   *model.Inputs
}

// StructuredNetworks builds every network of structuredCases.
func StructuredNetworks(t *testing.T) []StructuredNetwork {
	var out []StructuredNetwork
	for _, c := range structuredCases() {
		n, in := c.build(t)
		out = append(out, StructuredNetwork{Name: c.name, Net: n, In: in})
	}
	return out
}

// WarmPoint is the warm rung's carried point for slot t, nil on a warm miss.
func WarmPoint(p2 *P2, in *model.Inputs, t int, prev *model.Decision) []float64 {
	return newSolveState().warmPoint(p2, in, t, prev)
}

// SameCovering reports whether slots t and u give P2 the same rows.
func SameCovering(n *model.Network, in *model.Inputs, t, u int) bool {
	return sameCovering(n, in, t, u)
}
