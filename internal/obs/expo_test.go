package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total", "frames processed", L("pole", "1")).Add(7)
	r.Gauge("temp_c", "compartment temperature").Set(49.5)
	h := r.Histogram("stage_seconds", "per-stage latency", []float64{0.001, 0.01}, L("stage", "cluster"))
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(3) // +Inf bucket

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP frames_total frames processed",
		"# TYPE frames_total counter",
		`frames_total{pole="1"} 7`,
		"# TYPE temp_c gauge",
		"temp_c 49.5",
		"# TYPE stage_seconds histogram",
		`stage_seconds_bucket{stage="cluster",le="0.001"} 1`,
		`stage_seconds_bucket{stage="cluster",le="0.01"} 2`,
		`stage_seconds_bucket{stage="cluster",le="+Inf"} 3`,
		`stage_seconds_sum{stage="cluster"} 3.0055`,
		`stage_seconds_count{stage="cluster"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestBucketCountsAreCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 3})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(2.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2"} 2`,
		`lat_bucket{le="3"} 3`,
		`lat_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "").Inc()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(string(body), "up_total 1") {
		t.Errorf("scrape missing counter:\n%s", body)
	}

	// pprof index must be reachable on the same listener.
	resp, err = http.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(idx), "goroutine") {
		t.Errorf("pprof index status %d body %.80s", resp.StatusCode, idx)
	}
}

// TestServeMountsExtraHandlers mounts an extra handler next to /metrics
// on one listener — the single-diagnostics-port pattern polesim uses to
// serve the campus query API beside the scrape target.
func TestServeMountsExtraHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "").Inc()
	srv, err := ServeMounts("127.0.0.1:0", r, map[string]http.Handler{
		"/api/": http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			io.WriteString(w, "campus "+req.URL.Path)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":    "up_total 1",
		"/api/campus": "campus /api/campus",
	} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), want) {
			t.Errorf("%s: status %d, body %.80s (want %q)", path, resp.StatusCode, body, want)
		}
	}
}

// TestServeSetsDeadlines: the server Serve starts bounds how long a client
// may take over a request header and how long an idle keep-alive
// connection is kept, and sets no write deadline, which would cut a
// /debug/pprof/profile stream short.
func TestServeSetsDeadlines(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if h := srv.srv; h.ReadHeaderTimeout <= 0 || h.IdleTimeout <= 0 || h.WriteTimeout != 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v, WriteTimeout %v; want the first two set and no write deadline",
			h.ReadHeaderTimeout, h.IdleTimeout, h.WriteTimeout)
	}
}
