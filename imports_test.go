package hawccc

import (
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"hawccc/internal/backend"
	"hawccc/internal/counting"
	"hawccc/internal/models"
	"hawccc/internal/pole"
	"hawccc/internal/tsdb"
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

// TestReferencesStayOutOfTheRunningSystem keeps references out of the
// module's packages: every internal package is one the library, the
// commands or the examples build, so an oracle lives in the test that
// needs it, not in a package the running system never imports. The
// retired tracking and fleet load-generator packages must not reappear
// in the module. It also
// keeps internal/experiments to the paper's tables and figures: those
// never need a live campus, so the package must not reach the backend,
// the pole node or the history store (bench/ is the system benchmark;
// internal/wire stays reachable because the counting pipeline snaps
// clusters onto its classification lattice). And it keeps the cloud tier to
// aggregation: the backend receives counts, so it must not reach the
// classifiers or the counting pipeline, and the history store to
// storage: it records what poles reported, so it must not reach the
// metrics registry.
func TestReferencesStayOutOfTheRunningSystem(t *testing.T) {
	built := map[string]bool{}
	for _, pkg := range goList(t, "-deps", ".", "./cmd/...", "./examples/...") {
		built[pkg] = true
	}
	for _, pkg := range goList(t, "./internal/...") {
		if !built[pkg] {
			t.Errorf("%s is a package no library, command or example builds", pkg)
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
	for _, pkg := range goList(t, "-deps", "./internal/backend") {
		switch pkg {
		case "hawccc/internal/models", "hawccc/internal/counting":
			t.Errorf("internal/backend reaches %s (the cloud tier aggregates, it does not infer)", pkg)
		}
	}
	for _, pkg := range goList(t, "-deps", "./internal/tsdb") {
		if pkg == "hawccc/internal/obs" {
			t.Errorf("internal/tsdb reaches %s (the store is a storage library; /metrics is scraped, not copied into it)", pkg)
		}
	}
}

// TestConfigSurface pins the exported fields of the system's config
// structs, trainers and clusterers. Every field is a setting tests and
// the benchmark would have to cover, so adding one is a reviewed line
// here, not a drive-by.
func TestConfigSurface(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want string
	}{
		{counting.StreamConfig{}, ""},
		{pole.Config{}, "PoleID Location Zone BackendAddr Pipeline Source FrameInterval Telemetry ModelVersion MaxReconnects Obs Logf"},
		{backend.Config{}, "Addr APIAddr SnapshotInterval CrowdingLimit OverheatLimit History Obs Logf"},
		{tsdb.Config{}, "Dir"},
		{models.TrainConfig{}, "Epochs Seed Progress"},
		{models.AutoEncoder{}, ""},
		{models.OCSVM{}, ""},
		{models.HAWC{}, "Projector GaussianSigma"},
		{counting.AdaptiveClusterer{}, ""},
		{counting.FixedEpsClusterer{}, "Eps"},
		{counting.HierarchicalClusterer{}, ""},
	} {
		typ := reflect.TypeOf(tc.cfg)
		var got []string
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("%s fields:\n got  %s\n want %s", typ, g, tc.want)
		}
	}
}
