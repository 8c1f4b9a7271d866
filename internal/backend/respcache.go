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
	"net/http"
	"strconv"
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

// encodeRow is the one place a pole's row becomes bytes: what the
// encoder writes for it inside any response body (both escape HTML, and
// neither indents), so a listing spliced from rows is the listing the
// encoder would have produced. The result is never written again.
func encodeRow(p *PoleStats) []byte {
	b, err := json.Marshal(p)
	if err != nil {
		// Unreachable for the same reason as in encodeBody; null keeps the
		// listing well-formed.
		return []byte("null")
	}
	return b
}

// spliceListing builds the /api/poles body from the snapshot's row
// encodings: encodeBody(polesResponse{m, snap.Poles}) byte for byte
// (pinned by test) without encoding a row. The head — everything up to
// the rows — is what the encoder writes for a listing of no rows, less
// its closing `null}` and newline.
func spliceListing(m snapshotMeta, rows [][]byte) []byte {
	head := encodeBody(polesResponse{snapshotMeta: m})
	if len(rows) == 0 {
		return head
	}
	head = head[:len(head)-len("null}\n")]
	n := len(head) + len("[]}\n") + len(rows) - 1
	for _, r := range rows {
		n += len(r)
	}
	b := make([]byte, 0, n)
	b = append(b, head...)
	b = append(b, '[')
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, r...)
	}
	return append(b, "]}\n"...)
}

// buildRespCache pre-serializes the hot endpoint bodies for snap. Called
// once per build, before the snapshot is published.
func buildRespCache(snap *Snapshot) *respCache {
	m := meta(snap)
	c := &respCache{etag: `"` + strconv.FormatUint(snap.Seq, 10) + `"`}
	c.etagHdr = []string{c.etag}
	c.campus = newCacheEntry(encodeBody(campusResponse{m, snap.Campus}))
	c.poles = newCacheEntry(spliceListing(m, snap.rowJSON))
	c.zones = newCacheEntry(encodeBody(zonesResponse{m, snap.Zones}))
	c.top = newCacheEntry(encodeBody(topResponse{m, CachedTopK, snap.TopK(CachedTopK)}))
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
