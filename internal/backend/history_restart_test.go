package backend

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"hawccc/internal/tsdb"
)

// historyDirServer starts a backend whose history store persists to dir
// and reads it back on open.
func historyDirServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := Listen(Config{
		Addr:             "127.0.0.1:0",
		SnapshotInterval: -1,
		History:          &tsdb.Config{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHistorySurvivesBackendRestart is the warm-start acceptance test:
// reports captured before a restart are served by /api/history after
// it, in the same bodies byte for byte, and post-restart reports extend
// the same series.
func TestHistorySurvivesBackendRestart(t *testing.T) {
	dir := t.TempDir()
	queries := []string{
		"/api/history?pole=1&series=count&from=0&to=9223372036854775807",
		"/api/history?pole=1&series=pole_temp_c&series=ambient_c&from=0&to=9223372036854775807",
		"/api/history?pole=1&series=edge_latency_us&from=0&to=9223372036854775807&res=3s",
		"/api/history/series?pole=1",
	}
	bodies := func(s *Server) []json.RawMessage {
		out := make([]json.RawMessage, len(queries))
		for i, q := range queries {
			if code := get(t, s.APIHandler(), q, &out[i]); code != http.StatusOK {
				t.Fatalf("%s: status %d", q, code)
			}
		}
		return out
	}

	s1 := historyDirServer(t, dir)
	temps := []float64{20, 21, 22, 23, 24, 25, 26, 27, 28, 29}
	countTS, counts := sendReports(t, s1, temps)
	before := bodies(s1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := historyDirServer(t, dir)
	defer s2.Close()
	if loaded := s2.History().Stats().Loaded; loaded == 0 {
		t.Fatal("restarted store loaded nothing from disk")
	}
	for i, body := range bodies(s2) {
		if !bytes.Equal(body, before[i]) {
			t.Errorf("%s after restart:\n got  %s\n want %s", queries[i], body, before[i])
		}
	}
	var resp HistoryResponse
	if code := get(t, s2.APIHandler(), "/api/history?pole=1&series=count&from=0&to=9223372036854775807", &resp); code != http.StatusOK {
		t.Fatalf("history after restart: status %d", code)
	}
	if resp.Count != len(temps) {
		t.Fatalf("restart serves %d samples, want %d", resp.Count, len(temps))
	}
	for i, smp := range resp.Samples {
		if smp.T != countTS[i] || float64(smp.V) != counts[i] {
			t.Fatalf("sample %d after restart: (%d, %v), want (%d, %v)",
				i, smp.T, smp.V, countTS[i], counts[i])
		}
	}

	// New reports land after the restored history in the same series.
	sendReports(t, s2, []float64{30, 31})
	if code := get(t, s2.APIHandler(), "/api/history?pole=1&series=count&from=0&to=9223372036854775807", &resp); code != http.StatusOK {
		t.Fatalf("history after new reports: status %d", code)
	}
	if resp.Count != len(temps)+2 {
		t.Fatalf("combined history has %d samples, want %d", resp.Count, len(temps)+2)
	}
}

// TestHistoryBatchRead requests several series in one /api/history call
// and checks each element matches its single-series read exactly.
func TestHistoryBatchRead(t *testing.T) {
	s := newHistoryTestServer(t, nil)
	sendReports(t, s, []float64{20, 25, 30, 35})
	h := s.APIHandler()
	const window = "from=0&to=9223372036854775807"

	var batch HistoryBatchResponse
	if code := get(t, h, "/api/history?pole=1&series=count&series=pole_temp_c&series=clusters&"+window, &batch); code != http.StatusOK {
		t.Fatalf("batch read: status %d", code)
	}
	if len(batch.Series) != 3 || batch.Res != "raw" || batch.Pole != 1 {
		t.Fatalf("batch meta: %d series, res %q, pole %d", len(batch.Series), batch.Res, batch.Pole)
	}
	for _, want := range []string{"count", "pole_temp_c", "clusters"} {
		found := false
		for _, one := range batch.Series {
			if one.Series != want {
				continue
			}
			found = true
			var single HistoryResponse
			if code := get(t, h, "/api/history?pole=1&series="+want+"&"+window, &single); code != http.StatusOK {
				t.Fatalf("single read %s: status %d", want, code)
			}
			if len(one.Samples) != len(single.Samples) || one.Count != single.Count {
				t.Fatalf("series %s: batch %d samples, single %d", want, len(one.Samples), len(single.Samples))
			}
			for i := range one.Samples {
				if one.Samples[i] != single.Samples[i] {
					t.Fatalf("series %s sample %d: batch %+v, single %+v", want, i, one.Samples[i], single.Samples[i])
				}
			}
		}
		if !found {
			t.Fatalf("series %s missing from batch response", want)
		}
	}

	// An unknown series anywhere in the batch fails the whole request.
	if code := get(t, h, "/api/history?pole=1&series=count&series=nope&"+window, nil); code != http.StatusNotFound {
		t.Fatalf("batch with unknown series: status %d, want 404", code)
	}
	// Single-series requests keep the flat response shape: a bare
	// HistoryResponse with no series array.
	var single HistoryResponse
	if code := get(t, h, "/api/history?pole=1&series=count&"+window, &single); code != http.StatusOK || single.Series != "count" {
		t.Fatalf("single-series shape: status %d, series %q", code, single.Series)
	}
}

// TestHistoryBatchReadsTakeNoShardLocks extends the zero-shard-lock
// read-path pin to the batch form.
func TestHistoryBatchReadsTakeNoShardLocks(t *testing.T) {
	s := newHistoryTestServer(t, nil)
	sendReports(t, s, []float64{20, 21, 22, 23})
	h := s.APIHandler()

	before := s.reg.lockAcquisitions.Load()
	for i := 0; i < 50; i++ {
		get(t, h, "/api/history?pole=1&series=count&series=clusters&series=pole_temp_c&from=0&to=9223372036854775807", nil)
		get(t, h, "/api/history?pole=1&series=count&series=ambient_c&from=0&to=9223372036854775807&res=2s", nil)
	}
	if after := s.reg.lockAcquisitions.Load(); after != before {
		t.Fatalf("batch history reads acquired %d registry shard locks, want 0", after-before)
	}
}
