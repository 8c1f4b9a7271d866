package hawccc

import (
	"os/exec"
	"strings"
	"testing"
)

// goList runs `go list` with args from the module root and returns the
// package paths it prints.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
	}
	return strings.Fields(string(out))
}

// TestReferencesStayOutOfTheRunningSystem guards the one-path geometry
// stage: the k-d tree is the oracle the equivalence tests compare the
// voxel grid against, so nothing the library, the commands, or the
// examples build may import it, and the retired tracking and fleet
// load-generator packages must not reappear in the module. It also
// keeps internal/experiments to the paper's tables and figures: those
// never need a live campus, so the package must not reach the backend,
// the pole node or the history store (bench/ is the system benchmark;
// internal/wire stays reachable because the counting pipeline snaps
// clusters onto its transport lattice).
func TestReferencesStayOutOfTheRunningSystem(t *testing.T) {
	for _, pkg := range goList(t, "-deps", ".", "./cmd/...", "./examples/...") {
		if pkg == "hawccc/internal/kdtree" {
			t.Errorf("a non-test package imports %s (test-only oracle)", pkg)
		}
	}
	for _, pkg := range goList(t, "./...") {
		if strings.HasSuffix(pkg, "internal/track") || strings.HasSuffix(pkg, "internal/fleet") {
			t.Errorf("%s is back in the module", pkg)
		}
	}
	for _, pkg := range goList(t, "-deps", "./internal/experiments") {
		switch pkg {
		case "hawccc/internal/backend", "hawccc/internal/pole", "hawccc/internal/tsdb":
			t.Errorf("internal/experiments reaches %s (paper tables and figures need no live campus)", pkg)
		}
	}
}
