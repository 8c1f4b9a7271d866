package main

import (
	"fmt"
	"sort"
)

// runSeconds is the default measured window of one run, and the one in
// BENCHMARK.json: the issue's 30 s window (3 s warm-up, 10 s traced
// window) scaled by two thirds, the longest with which the driver's 92
// runs, set-up included, fit its time cap with a fifth to spare. All four
// workloads share the factor.
const (
	runSeconds   = 20
	issueSeconds = 30.0
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloads must match BENCHMARK.json (spec_test.go checks it).
var workloads = []workloadSpec{
	{"walkway", "real poles on 1-6 people scenes, Poisson 20 Hz captures: unloaded per-frame latency against the 16 ms budget and count freshness; classify is 87% of a frame, the backend idles"},
	{"crowd", "real poles on 16-32 people scenes, unpaced closed loop: sustainable frames/s at saturation; 22 clusters a frame, classify batches 72% full, cluster cost 4x walkway's, scheduler queueing"},
	{"fleet_ingest", "10k synthetic poles, closed-loop report ingest beside a paced 400 req/s dashboard: write-heavy, a full-size snapshot rebuilt every tick on the same cores, four fifths of the poles dirty per snapshot"},
	{"fleet_dashboard", "10k synthetic poles, closed-loop dashboard mix beside paced 2000 reports/s: read-heavy, 1% of poles dirty per snapshot, serve path, 304s and the 3 MB listing dominate"},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end metrics only
}

// endToEnd must match BENCHMARK.json. Every workload reports every one
// of them and none may read 0 (the driver's contract), so the latency is
// that of the workload's headline operation (workload.go). The issue's
// per-workload names are per-layer metrics, its three rates among them:
// what two processors complete in a second follows what the host's other
// guests leave of them, and over sets of ten runs the rates of the fleet
// workloads spread by up to 27%, past any bound the contract allows
// (README.md has the tables). The bounds are the contract's widest.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"freshness_p50_ms", "ms", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
}

func lower(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

// perLayer must match BENCHMARK.json. A metric of a layer the workload
// does not exercise, or with no samples, reads 0.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		// The issue's end-to-end names: defined on some workloads only,
		// zero by design, or not repeating (see README.md).
		lower("frame_latency_p50_ms", "ms"),
		lower("frame_latency_p95_ms", "ms"),
		higher("frames_per_s", "1/s"),
		higher("reports_per_s", "1/s"),
		lower("query_p50_ms", "ms"),
		higher("query_per_s", "1/s"),
		lower("listing_p50_ms", "ms"),
		lower("count_mae", "people"),
		lower("failed_ratio", "ratio"),

		lower("ground.us_per_frame", "us"),
		higher("ground.points_kept_ratio", "ratio"),
		lower("cluster.us_per_frame", "us"),
		lower("cluster.clusters_per_frame", "count"),
		lower("cluster.noise_ratio", "ratio"),
		lower("spatial.index_build_us_per_frame", "us"),
		lower("wire.snap_us_per_frame", "us"),
		lower("wire.batch_bytes_per_frame", "bytes"),
		lower("models.classify_us_per_cluster", "us"),
		lower("models.classify_us_per_frame", "us"),
		higher("models.batch_fill_ratio", "ratio"),
		lower("models.classify_int8_us_per_cluster", "us"),
		lower("counting.count_us_per_frame", "us"),
		lower("counting.stream_idle_e2e_p50_ms", "ms"),
		lower("counting.overhead_us_per_frame", "us"),
		higher("counting.stream_frames_per_s", "1/s"),
		lower("counting.allocs_per_frame", "count"),
		lower("counting.stream_e2e_p50_ms", "ms"),
		lower("pole.source_wait_p50_ms", "ms"),
		lower("obs.pipeline_overhead_ratio", "ratio"),
		lower("obs.backend_overhead_ratio", "ratio"),
		lower("wire.report_codec_ns_per_op", "ns"),
		lower("wire.frame_io_ns_per_op", "ns"),
		lower("wire.bytes_per_report", "bytes"),
		lower("backend.ack_rtt_p50_ms", "ms"),
		lower("backend.snapshot_wait_p50_ms", "ms"),
		higher("backend.ingest_solo_reports_per_s", "1/s"),
		lower("backend.rebuild_ms", "ms"),
		lower("backend.rebuild_dirty1pct_ms", "ms"),
		higher("backend.snapshots_per_s", "1/s"),
		lower("backend.snapshot_age_p50_ms", "ms"),
		lower("backend.dirty_pole_ratio", "ratio"),
		higher("backend.not_modified_ratio", "ratio"),
		lower("backend.query_p99_ms", "ms"),
		lower("backend.listing_p99_ms", "ms"),
		lower("tsdb.append_ns_per_sample", "ns"),
		lower("tsdb.query_raw_us", "us"),
		lower("tsdb.query_buckets_us", "us"),
		lower("tsdb.bytes_per_sample", "bytes"),
		lower("tsdb.segment_bytes_written", "bytes"),
		lower("loadgen.late_p95_ms", "ms"),
		lower("loadgen.backlog_end", "count"),
		lower("process.cpu_util", "ratio"),
		lower("process.cpu_sys_ratio", "ratio"),
		lower("process.heap_peak_mb", "MB"),
		lower("process.gc_pause_total_ms", "ms"),
		lower("ledger.residual_ratio", "ratio"),
		lower("trace.overhead_ratio", "ratio"),
	}
	for _, ep := range endpointNames {
		specs = append(specs, lower("backend.serve_us."+ep, "us"))
	}
	for _, ep := range endpointNames {
		specs = append(specs, lower("backend.http_us."+ep, "us"))
	}
	for _, ep := range []string{"poles", "zone_id", "campus"} {
		specs = append(specs, lower("backend.body_bytes."+ep, "bytes"))
	}
	return specs
}()

// metricValue is one reported number with the sample count behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	set   bool    // measured by this run, as opposed to filled in as 0
}

// metricSet collects the metrics of one run against a spec list, so that
// every name is reported exactly once: setting an unknown name or the
// same name twice is a bug in the benchmark and is recorded as one.
type metricSet struct {
	specs  []metricSpec
	units  map[string]string
	values map[string]metricValue
	errs   []string
}

func newMetricSet(specs []metricSpec) *metricSet {
	m := &metricSet{specs: specs, units: map[string]string{}, values: map[string]metricValue{}}
	for _, s := range specs {
		m.units[s.Name] = s.Unit
	}
	return m
}

func (m *metricSet) set(name string, value float64, n int) {
	unit, known := m.units[name]
	if !known {
		m.errs = append(m.errs, "unknown metric "+name)
		return
	}
	if _, dup := m.values[name]; dup {
		m.errs = append(m.errs, "metric set twice: "+name)
		return
	}
	m.values[name] = metricValue{Value: value, Unit: unit, N: n, set: true}
}

// setDist reports the median of a latency sample set; an empty set
// leaves the metric unmeasured.
func (m *metricSet) setDist(name string, ms []float64) { m.setTail(name, ms, 0.50) }

// setTail reports a tail latency at q, or at the highest percentile the
// sample count supports (ten samples beyond it) when that is lower.
func (m *metricSet) setTail(name string, ms []float64, q float64) {
	if len(ms) > 0 {
		m.set(name, percentile(sortedCopy(ms), min(q, tailLevel(len(ms)))), len(ms))
	}
}

// finish fills every unset metric with 0 when allowZero (per-layer
// metrics of layers the workload does not exercise) and otherwise
// reports unset or zero metrics as errors (end-to-end metrics are never
// 0). It returns the values by name.
func (m *metricSet) finish(allowZero bool) (map[string]metricValue, error) {
	for _, s := range m.specs {
		v, ok := m.values[s.Name]
		switch {
		case !ok && allowZero:
			m.values[s.Name] = metricValue{Unit: s.Unit}
		case !ok:
			m.errs = append(m.errs, "metric not measured: "+s.Name)
		case !allowZero && v.Value == 0:
			m.errs = append(m.errs, "metric is zero: "+s.Name)
		}
	}
	if len(m.errs) > 0 {
		sort.Strings(m.errs)
		return m.values, fmt.Errorf("metrics: %v", m.errs)
	}
	return m.values, nil
}
