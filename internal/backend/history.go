// History endpoints: the query surface over the FTDC-style time-series
// store (internal/tsdb). Unlike the snapshot-served endpoints, history
// reads decode immutable sealed chunks plus a brief copy of one series'
// hot tail — they still never touch a registry shard lock, so the
// zero-shard-lock read-path contract holds with history enabled.
package backend

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"hawccc/internal/tsdb"
	"hawccc/internal/wire"
)

// DefaultHistoryWindow is the query window when neither window nor
// from/to is given.
const DefaultHistoryWindow = 5 * time.Minute

// DefaultHistoryLimit caps the samples or buckets one query returns when
// no limit parameter is given; the newest are kept when it truncates.
const DefaultHistoryLimit = 10000

// poleHist is the per-pole history-series handle set, created on first
// sight of a pole and cached in its registry entry so the report path
// does no store lookups. A nil *poleHist — history disabled — makes every
// capture a no-op.
type poleHist struct {
	count    *tsdb.Series
	clusters *tsdb.Series
	latency  *tsdb.Series
	poleTemp *tsdb.Series
	ambient  *tsdb.Series
}

// newPoleHist creates the pole's history series; nil without a store.
func (s *Server) newPoleHist(id uint32) *poleHist {
	if s.hist == nil {
		return nil
	}
	return &poleHist{
		count:    s.hist.Series(id, "count"),
		clusters: s.hist.Series(id, "clusters"),
		latency:  s.hist.Series(id, "edge_latency_us"),
		poleTemp: s.hist.Series(id, "pole_temp_c"),
		ambient:  s.hist.Series(id, "ambient_c"),
	}
}

// maxHistorySkew is how far ahead of the receive clock a wire timestamp
// may run and still be stored as sent. Series.Append clamps every earlier
// timestamp up to the series' latest, so one report stamped tomorrow (a
// pole clock before its NTP fix) would drag all of that pole's samples to
// tomorrow until tomorrow came.
const maxHistorySkew = time.Minute

// histTS picks the history timestamp for a wire message received at now:
// the pole's own timestamp, or now when the pole set none or one more
// than maxHistorySkew ahead. Past timestamps are kept as sent — telemetry
// replays old readings on purpose.
func histTS(t, now time.Time) int64 {
	if t.IsZero() || t.Sub(now) > maxHistorySkew {
		return now.UnixNano()
	}
	return t.UnixNano()
}

// recordCount and recordTelemetry append straight to the store. Their
// callers (Server.recordCount / recordTelemetry) run them after the
// registry shard lock is released and before the ack is sent: a sample is
// readable when its report is acked, and a seal's chunk encode or segment
// rotation never runs under a registry lock.
func (h *poleHist) recordCount(r wire.CountReport, now time.Time) {
	if h == nil {
		return
	}
	ts := histTS(r.Timestamp, now)
	h.count.Append(ts, float64(r.Count))
	h.clusters.Append(ts, float64(r.Clusters))
	h.latency.Append(ts, float64(r.LatencyUS))
}

func (h *poleHist) recordTelemetry(t wire.Telemetry, now time.Time) {
	if h == nil {
		return
	}
	ts := histTS(t.Timestamp, now)
	h.poleTemp.Append(ts, t.PoleTemp)
	h.ambient.Append(ts, t.Ambient)
}

// History returns the backing time-series store, or nil when
// Config.History was not set.
func (s *Server) History() *tsdb.Store { return s.hist }

// jsonF64 marshals a float64 exactly (shortest round-trip formatting, so
// decoding reproduces the identical bit pattern) while mapping NaN and
// ±Inf — which JSON cannot carry — to null.
type jsonF64 float64

func (f jsonF64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if !finite(v) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

func (f *jsonF64) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = jsonF64(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*f = jsonF64(v)
	return nil
}

// HistorySample is the JSON form of one raw sample.
type HistorySample struct {
	T int64   `json:"t"` // unix nanoseconds
	V jsonF64 `json:"v"`
}

// HistoryBucket is the JSON form of one downsampled bucket.
type HistoryBucket struct {
	T     int64   `json:"t"` // bucket start, unix nanoseconds
	Count int     `json:"count"`
	Min   jsonF64 `json:"min"`
	Max   jsonF64 `json:"max"`
	Mean  jsonF64 `json:"mean"`
	Last  jsonF64 `json:"last"`
}

// HistoryResponse is the body of GET /api/history.
type HistoryResponse struct {
	Pole    uint32          `json:"pole"`
	Series  string          `json:"series"`
	Res     string          `json:"res"` // "raw" or the bucket step
	From    int64           `json:"from"`
	To      int64           `json:"to"`
	Total   int             `json:"total"` // matches before the limit cut
	Count   int             `json:"count"` // returned
	Samples []HistorySample `json:"samples,omitempty"`
	Buckets []HistoryBucket `json:"buckets,omitempty"`
}

// HistoryBatchResponse is the body of GET /api/history when more than
// one series= parameter is given: one HistoryResponse per requested
// series, sharing the window, resolution, and limit. A single series=
// keeps the flat HistoryResponse shape for compatibility.
type HistoryBatchResponse struct {
	Pole   uint32            `json:"pole"`
	Res    string            `json:"res"`
	From   int64             `json:"from"`
	To     int64             `json:"to"`
	Series []HistoryResponse `json:"series"`
}

// HistorySeriesResponse is the body of GET /api/history/series.
type HistorySeriesResponse struct {
	Pole   uint32            `json:"pole"`
	Series []tsdb.SeriesMeta `json:"series"`
}

// historyWindow resolves the [from, to] query range: explicit from/to
// (unix nanoseconds) win, else now-window..now (window a duration,
// DefaultHistoryWindow when absent).
func historyWindow(r *http.Request) (from, to int64, err error) {
	q := r.URL.Query()
	if fs, ts := q.Get("from"), q.Get("to"); fs != "" || ts != "" {
		if fs == "" || ts == "" {
			return 0, 0, fmt.Errorf("from and to must be given together (unix nanoseconds)")
		}
		from, err = strconv.ParseInt(fs, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("from must be unix nanoseconds")
		}
		to, err = strconv.ParseInt(ts, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("to must be unix nanoseconds")
		}
		if to < from {
			return 0, 0, fmt.Errorf("to must not precede from")
		}
		return from, to, nil
	}
	window := DefaultHistoryWindow
	if ws := q.Get("window"); ws != "" {
		window, err = time.ParseDuration(ws)
		if err != nil || window <= 0 {
			return 0, 0, fmt.Errorf("window must be a positive duration")
		}
	}
	now := time.Now().UnixNano()
	return now - int64(window), now, nil
}

// handleHistory serves GET /api/history?pole=ID&series=NAME with either
// res=raw (default; bit-identical samples) or res=<duration> (min / max /
// mean / last buckets of that width, aligned to from). Repeating the
// series parameter batches several reads of the same pole and window
// into one request (HistoryBatchResponse); like the single-series form,
// the batch path reads only immutable sealed chunks plus brief hot-tail
// copies and never takes a registry shard lock.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request, _ *Snapshot) (int, any) {
	if s.hist == nil {
		return http.StatusNotFound, apiError{Error: "history capture is not enabled"}
	}
	q := r.URL.Query()
	poleID, err := strconv.ParseUint(q.Get("pole"), 10, 32)
	if err != nil {
		return http.StatusBadRequest, apiError{Error: "pole must be a uint32"}
	}
	names := q["series"]
	if len(names) == 0 || (len(names) == 1 && names[0] == "") {
		return http.StatusBadRequest, apiError{Error: "series is required"}
	}
	from, to, err := historyWindow(r)
	if err != nil {
		return http.StatusBadRequest, apiError{Error: err.Error()}
	}
	limit := DefaultHistoryLimit
	if ls := q.Get("limit"); ls != "" {
		limit, err = strconv.Atoi(ls)
		if err != nil || limit < 1 {
			return http.StatusBadRequest, apiError{Error: "limit must be a positive integer"}
		}
	}
	res := q.Get("res")
	var step time.Duration
	if res == "" || res == "raw" {
		res = "raw"
	} else {
		step, err = time.ParseDuration(res)
		if err != nil || step <= 0 {
			return http.StatusBadRequest, apiError{Error: "res must be \"raw\" or a positive duration"}
		}
	}

	if len(names) == 1 {
		return s.queryHistory(uint32(poleID), names[0], from, to, limit, res, step)
	}
	batch := HistoryBatchResponse{
		Pole:   uint32(poleID),
		Res:    res,
		From:   from,
		To:     to,
		Series: make([]HistoryResponse, 0, len(names)),
	}
	for _, name := range names {
		code, body := s.queryHistory(uint32(poleID), name, from, to, limit, res, step)
		if code != http.StatusOK {
			return code, body
		}
		batch.Series = append(batch.Series, body.(HistoryResponse))
	}
	return http.StatusOK, batch
}

// queryHistory runs one series' read and shapes the response; shared by
// the single-series and batch forms of /api/history.
func (s *Server) queryHistory(poleID uint32, name string, from, to int64, limit int, res string, step time.Duration) (int, any) {
	sr, ok := s.hist.Lookup(uint32(poleID), name)
	if !ok {
		return http.StatusNotFound, apiError{Error: fmt.Sprintf("no history series %q for pole %d", name, poleID)}
	}
	resp := HistoryResponse{Pole: uint32(poleID), Series: name, Res: res, From: from, To: to}
	if step == 0 {
		raw, err := sr.QueryRaw(from, to)
		if err != nil {
			return http.StatusInternalServerError, apiError{Error: err.Error()}
		}
		resp.Total = len(raw)
		if len(raw) > limit {
			raw = raw[len(raw)-limit:] // keep the newest
		}
		resp.Count = len(raw)
		resp.Samples = make([]HistorySample, len(raw))
		for i, smp := range raw {
			resp.Samples[i] = HistorySample{T: smp.TS, V: jsonF64(smp.V)}
		}
		return http.StatusOK, resp
	}
	buckets, err := sr.QueryBuckets(from, to, int64(step))
	if err != nil {
		return http.StatusInternalServerError, apiError{Error: err.Error()}
	}
	resp.Total = len(buckets)
	if len(buckets) > limit {
		buckets = buckets[len(buckets)-limit:]
	}
	resp.Count = len(buckets)
	resp.Buckets = make([]HistoryBucket, len(buckets))
	for i, b := range buckets {
		resp.Buckets[i] = HistoryBucket{
			T:     b.TS,
			Count: b.Count,
			Min:   jsonF64(b.Min),
			Max:   jsonF64(b.Max),
			Mean:  jsonF64(b.Mean),
			Last:  jsonF64(b.Last),
		}
	}
	return http.StatusOK, resp
}

// handleHistorySeries serves GET /api/history/series?pole=ID — the
// pole's captured series sorted by name.
func (s *Server) handleHistorySeries(w http.ResponseWriter, r *http.Request, _ *Snapshot) (int, any) {
	if s.hist == nil {
		return http.StatusNotFound, apiError{Error: "history capture is not enabled"}
	}
	poleID, err := strconv.ParseUint(r.URL.Query().Get("pole"), 10, 32)
	if err != nil {
		return http.StatusBadRequest, apiError{Error: "pole must be a uint32"}
	}
	return http.StatusOK, HistorySeriesResponse{
		Pole:   uint32(poleID),
		Series: s.hist.PoleSeries(uint32(poleID)),
	}
}
