package main

import (
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	wanted, err := parseExperiments("Table5, fig8,all")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table5", "fig8", "all"} {
		if !wanted[id] {
			t.Errorf("%q not selected: %v", id, wanted)
		}
	}
	// Retired and misspelled ids fail the run and name themselves.
	for _, bad := range []string{"parallel", "stream", "kernels", "fleet", "history", "offload", "thermal", "fig8a", "fig8b", "table5,tabel1", ""} {
		_, err := parseExperiments(bad)
		if err == nil {
			t.Errorf("-exp %q accepted", bad)
			continue
		}
		last := bad[strings.LastIndex(bad, ",")+1:]
		if !strings.Contains(err.Error(), `"`+last+`"`) || !strings.Contains(err.Error(), "table1") {
			t.Errorf("-exp %q: error %q does not name the bad id and the valid set", bad, err)
		}
	}
}
