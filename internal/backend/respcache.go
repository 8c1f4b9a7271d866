// The response cache: pre-serialized bodies for the hot, parameterless
// query endpoints, built once per snapshot and published WITH
// the snapshot behind the same atomic pointer. A cached request costs
// three header-map assignments of shared precomputed values plus one
// Write of an immutable byte slice — zero allocations, pinned by test —
// instead of a full JSON marshal of up to 10k poles. Because the cache
// rides inside the Snapshot struct, one atomic load yields a body and
// its ETag from the same build: readers can never observe a new body
// with a stale ETag or vice versa, no matter how builds interleave.
package backend

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"
)

// CachedTopK is the /api/top k the cache pre-serializes; requests for
// any other k fall through to the pooled-encoder path.
const CachedTopK = 10

// headerContentType is the shared Content-Type value slice assigned
// directly into response header maps (http.Header.Set would allocate a
// fresh []string per request).
var headerContentType = []string{"application/json"}

// cacheEntry is one endpoint's immutable pre-serialized body.
type cacheEntry struct {
	body []byte
	// clen is the precomputed Content-Length header value.
	clen []string
}

// respCache holds every pre-serialized body for one snapshot, plus the
// snapshot's ETag (the quoted sequence number — snapshots are immutable,
// so the sequence IS the entity version).
type respCache struct {
	etag    string   // `"<seq>"`, compared against If-None-Match
	etagHdr []string // shared ETag header value
	campus  cacheEntry
	poles   cacheEntry
	zones   cacheEntry
	top     cacheEntry
}

// encodeBody marshals v exactly as the pooled fall-through path does —
// compact, trailing newline — so cached and per-request bodies are
// bit-identical by construction (pinned by test).
func encodeBody(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		// Response structs contain only marshalable fields; an error here
		// is a programming bug, surfaced as an empty (non-cached) body.
		return nil
	}
	return buf.Bytes()
}

func newCacheEntry(body []byte) cacheEntry {
	return cacheEntry{body: body, clen: []string{strconv.Itoa(len(body))}}
}

// appendRow is the one place a pole's row becomes bytes: it appends p as
// the encoder writes it inside any response body (strings HTML-escaped,
// floats in the encoder's 'f'/'e' forms, model_version omitted when zero),
// without reflection — FuzzAppendRow holds it to json.Marshal. Rows the
// backend writes have finite temperatures (recordTelemetry) and a
// LastSeen from its own clock; the encoder refuses NaN, ±Inf and years
// outside [0, 9999], so no body could hold those anyway.
func appendRow(b []byte, p *PoleStats) []byte {
	b = append(b, `{"pole_id":`...)
	b = strconv.AppendUint(b, uint64(p.PoleID), 10)
	b = append(b, `,"location":`...)
	b = appendString(b, p.Location)
	b = append(b, `,"zone":`...)
	b = appendString(b, p.Zone)
	b = append(b, `,"reports":`...)
	b = strconv.AppendInt(b, int64(p.Reports), 10)
	b = append(b, `,"last_count":`...)
	b = strconv.AppendInt(b, int64(p.LastCount), 10)
	b = append(b, `,"total_count":`...)
	b = strconv.AppendInt(b, p.TotalCount, 10)
	b = append(b, `,"peak_count":`...)
	b = strconv.AppendInt(b, int64(p.PeakCount), 10)
	b = append(b, `,"last_seen":"`...)
	b = p.LastSeen.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","last_temp":`...)
	b = appendFloat(b, p.LastTemp)
	b = append(b, `,"max_temp":`...)
	b = appendFloat(b, p.MaxTemp)
	b = append(b, `,"alerts":`...)
	b = strconv.AppendInt(b, int64(p.Alerts), 10)
	if p.ModelVersion != 0 {
		b = append(b, `,"model_version":`...)
		b = strconv.AppendUint(b, uint64(p.ModelVersion), 10)
	}
	return append(b, '}')
}

// appendFloat writes f as the encoder writes a float64: 'f' format, or
// 'e' below 1e-6 and from 1e21 in magnitude, with a one-digit negative
// exponent written without its leading zero (e-07 → e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string the way the encoder does with
// HTML escaping on: `"` and `\` backslashed; \b \f \n \r \t in their
// short forms; other control bytes and < > & as \u00XX; U+2028 and U+2029
// as \u2028 and \u2029; each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// listingTail closes a body whose last field is a row array.
const listingTail = "]}\n"

// headOf is the encoder's body for v — a response whose last field is a
// nil row slice — up to the rows: less its closing `null}` and newline,
// plus the array's opening bracket.
func headOf(v any) []byte {
	head := encodeBody(v)
	return append(head[:len(head)-len("null}\n")], '[')
}

// listing returns the /api/poles body, encodeBody(polesResponse{meta(s),
// s.Poles}) byte for byte (pinned by test), and sets s.off: row i is
// body[s.off[i]:s.off[i+1]-1], and the byte after it is its separator.
// Without full, s has prev's rows in prev's order and changed lists,
// ascending, the rows that differ: the body is prev's spans between those
// rows and their new bytes, joined once (bytes.Join does not zero what
// it is about to fill). With full, every row is encoded into the body.
func (s *Snapshot) listing(prev *Snapshot, changed []int, full bool) []byte {
	v, n := polesResponse{snapshotMeta: meta(s)}, len(s.Poles)
	if n == 0 {
		return encodeBody(v)
	}
	head := headOf(v)
	s.off = make([]int32, n+1)
	sep := func(i int) byte {
		if i == n-1 {
			return listingTail[0]
		}
		return ','
	}
	if full {
		b := make([]byte, 0, len(head)+256*n+len(listingTail)) // rows run ~200 bytes
		b = append(b, head...)
		for i, p := range s.Poles {
			s.off[i] = int32(len(b))
			b = append(appendRow(b, p), sep(i))
		}
		s.off[n] = int32(len(b))
		return append(b, listingTail[1:]...)
	}

	body, size := prev.cache.poles.body, 0
	for _, i := range changed {
		size += int(prev.off[i+1]-prev.off[i]) + 32
	}
	rows := make([]byte, 0, size)
	parts := make([][]byte, 0, 2*len(changed)+3)
	parts = append(parts, head)
	pos := int32(len(head))
	keep := func(from, to int) { // prev's rows [from, to), unchanged
		if from == to {
			return
		}
		shift := pos - prev.off[from]
		for j := from; j < to; j++ {
			s.off[j] = prev.off[j] + shift
		}
		parts = append(parts, body[prev.off[from]:prev.off[to]])
		pos += prev.off[to] - prev.off[from]
	}
	from := 0
	for _, i := range changed {
		keep(from, i)
		k := len(rows)
		rows = append(appendRow(rows, s.Poles[i]), sep(i))
		// A part keeps its bytes even if a later append moves rows.
		parts = append(parts, rows[k:])
		s.off[i] = pos
		pos += int32(len(rows) - k)
		from = i + 1
	}
	keep(from, n)
	s.off[n] = pos
	parts = append(parts, []byte(listingTail[1:]))
	return bytes.Join(parts, nil)
}

// cutRows is encodeBody(v), for a response whose last field is a row
// slice left nil in v, with rows in that field: cut from listing, s's
// /api/poles body, so no row is encoded again.
func (s *Snapshot) cutRows(listing []byte, v any, rows []int32) []byte {
	if len(rows) == 0 {
		return encodeBody(v)
	}
	head := headOf(v)
	n := len(head) + len(listingTail)
	for _, i := range rows {
		n += int(s.off[i+1] - s.off[i])
	}
	b := make([]byte, 0, n)
	b = append(b, head...)
	for _, i := range rows {
		b = append(b, listing[s.off[i]:s.off[i+1]-1]...)
		b = append(b, ',')
	}
	b[len(b)-1] = listingTail[0]
	return append(b, listingTail[1:]...)
}

// zoneBody is the /api/zones/{zone} body, encodeBody(zoneResponse{meta(s),
// zone, s.ZonePoles(name)}) byte for byte (pinned by test), cut from the
// listing.
func (s *Snapshot) zoneBody(name string) (encodedBody, bool) {
	zi, ok := s.byZone[name]
	if !ok {
		return nil, false
	}
	v := zoneResponse{snapshotMeta: meta(s), Zone: s.Zones[zi]}
	return s.cutRows(s.cache.poles.body, v, s.zoneRows[zi]), true
}

// buildRespCache pre-serializes the hot endpoint bodies for snap, whose
// /api/poles body is listing. Called once per build, before the snapshot
// is published.
func buildRespCache(snap *Snapshot, listing []byte) *respCache {
	m := meta(snap)
	c := &respCache{etag: `"` + strconv.FormatUint(snap.Seq, 10) + `"`}
	c.etagHdr = []string{c.etag}
	c.campus = newCacheEntry(encodeBody(campusResponse{m, snap.Campus}))
	c.poles = newCacheEntry(listing)
	c.zones = newCacheEntry(encodeBody(zonesResponse{m, snap.Zones}))
	c.top = newCacheEntry(snap.cutRows(listing, topResponse{snapshotMeta: m, K: CachedTopK}, snap.top))
	return c
}

// lookup returns the pre-serialized entry for a request, or nil when the
// request must fall through to the encoder path. The /api/top check
// reads RawQuery directly — r.URL.Query() would allocate.
func (c *respCache) lookup(endpoint string, r *http.Request) *cacheEntry {
	switch endpoint {
	case "campus":
		return &c.campus
	case "poles":
		return &c.poles
	case "zones":
		return &c.zones
	case "top":
		if q := r.URL.RawQuery; q == "" || q == "k=10" {
			return &c.top
		}
	}
	return nil
}

// serveCached answers a request from the cache: shared header value
// slices are assigned directly into the header map (no per-request
// allocation), If-None-Match against the snapshot ETag short-circuits
// to an empty 304, and hits write the immutable body with its
// precomputed Content-Length.
func serveCached(w http.ResponseWriter, r *http.Request, c *respCache, e *cacheEntry) int {
	h := w.Header()
	h["Etag"] = c.etagHdr
	if inm := r.Header.Get("If-None-Match"); inm != "" && inm == c.etag {
		w.WriteHeader(http.StatusNotModified)
		return http.StatusNotModified
	}
	h["Content-Type"] = headerContentType
	h["Content-Length"] = e.clen
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.body)
	return http.StatusOK
}
