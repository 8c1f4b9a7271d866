// Prometheus text-format exposition and the HTTP surface: a /metrics
// handler rendered snapshot-on-scrape (the hot path never formats text)
// and net/http/pprof mounted on the same mux, so one -metrics-addr
// listener serves both the scrape target and the profiler.
package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// WritePrometheus renders every family in registration order using the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(order))
	for _, name := range order {
		fams = append(fams, r.families[name])
	}
	// Series membership can grow during the scrape; copy the slices under
	// the read lock, then render lock-free (instrument reads are atomic).
	type famCopy struct {
		name, help string
		kind       metricKind
		series     []*series
	}
	copies := make([]famCopy, len(fams))
	for i, f := range fams {
		copies[i] = famCopy{f.name, f.help, f.kind, append([]*series(nil), f.series...)}
	}
	r.mu.RUnlock()

	for _, f := range copies {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f.name, s, f.kind); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name string, s *series, kind metricKind) error {
	switch kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %g\n", name, s.labels, s.gauge.Value())
		return err
	default:
		return writeHistogram(w, name, s.labels, s.histogram.Snapshot())
	}
}

// mergeLabels splices le="..." into an existing rendered label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

func writeHistogram(w io.Writer, name, labels string, s HistSnapshot) error {
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		le := mergeLabels(labels, fmt.Sprintf("le=%q", formatBound(b)))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, cum); err != nil {
			return err
		}
	}
	le := mergeLabels(labels, `le="+Inf"`)
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, s.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
	return err
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest decimal form, no exponent for typical latency magnitudes.
func formatBound(b float64) string {
	s := fmt.Sprintf("%g", b)
	return s
}

// Handler returns the /metrics scrape handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// NewMux mounts the registry's /metrics handler and the pprof profiler
// (/debug/pprof/...) on one mux.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// The metrics server's deadlines: a client has readHeaderTimeout to send a
// request header, and a keep-alive connection with no request for
// idleTimeout is closed. There is no write deadline, because
// /debug/pprof/profile?seconds=N streams for N seconds.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// MetricsServer is a running metrics/pprof listener.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (e.g. "127.0.0.1:0") and serves /metrics and
// /debug/pprof on it until Close.
func Serve(addr string, r *Registry) (*MetricsServer, error) {
	return ServeMounts(addr, r, nil)
}

// ServeMounts is Serve with extra handlers mounted on the same listener
// — the pattern behind polesim's single diagnostics port, where the
// campus query API (/api/...) rides next to /metrics and the profiler.
// Patterns use net/http ServeMux syntax; they must not collide with
// /metrics or /debug/pprof.
func ServeMounts(addr string, r *Registry, mounts map[string]http.Handler) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	mux := NewMux(r)
	for pattern, h := range mounts {
		mux.Handle(pattern, h)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go func() { _ = srv.Serve(ln) }()
	return &MetricsServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// URL returns the scrape URL, http://addr/metrics.
func (m *MetricsServer) URL() string { return "http://" + m.Addr() + "/metrics" }

// Close stops the listener.
func (m *MetricsServer) Close() error { return m.srv.Close() }
