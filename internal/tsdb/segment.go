package tsdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Segment file format. A segment is a self-contained run of sealed
// chunks: before a series' first chunk in any given file, the file
// carries that series' schema record — the "periodic schema header" of
// the FTDC format, re-emitted per segment so a reader can start from any
// file without the ones before it.
//
//	header  := "HTSD" u8(version=1)
//	record  := u8(kind) u32(be payload length) payload
//	schema  := kind 1: u32(series id) u32(pole) u16(name length) name
//	chunk   := kind 2: u32(series id) chunk payload (codec.go format)
//
// Files are named seg-NNNNNN.htsd with a monotonically increasing
// sequence number; the writer rotates once a file exceeds SegmentBytes
// and deletes the oldest files beyond MaxSegments.
const (
	segmentMagic   = "HTSD"
	segmentVersion = 1

	recSchema = 1
	recChunk  = 2
)

// segmentWriter streams sealed chunks to rotated segment files. Write
// errors are sticky: the first one is kept, later writes become no-ops,
// and the store surfaces it through Close — a full disk must never take
// down the in-memory capture path.
type segmentWriter struct {
	mu          sync.Mutex
	dir         string
	maxBytes    int
	maxSegments int
	maxAge      time.Duration

	f         *os.File
	bw        *bufio.Writer
	written   int
	seq       int
	announced map[uint32]bool
	err       error
}

func newSegmentWriter(dir string, maxBytes, maxSegments int, maxAge time.Duration) (*segmentWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: segment dir: %w", err)
	}
	w := &segmentWriter{dir: dir, maxBytes: maxBytes, maxSegments: maxSegments, maxAge: maxAge}
	// Resume the sequence after any existing segments so restarts never
	// clobber retained history.
	existing, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if n := len(existing); n > 0 {
		fmt.Sscanf(filepath.Base(existing[n-1]), "seg-%d.htsd", &w.seq)
	}
	if err := w.rotate(); err != nil {
		return nil, err
	}
	return w, nil
}

// listSegments returns the directory's segment files sorted by name
// (sequence order, since the number is zero-padded).
func listSegments(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.htsd"))
	if err != nil {
		return nil, fmt.Errorf("tsdb: list segments: %w", err)
	}
	sort.Strings(matches)
	return matches, nil
}

// rotate opens the next segment file and prunes old ones. Caller holds
// w.mu (or is the constructor).
func (w *segmentWriter) rotate() error {
	if w.f != nil {
		if err := w.bw.Flush(); err != nil && w.err == nil {
			w.err = err
		}
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	w.seq++
	path := filepath.Join(w.dir, fmt.Sprintf("seg-%06d.htsd", w.seq))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tsdb: segment create: %w", err)
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.written = 0
	w.announced = make(map[uint32]bool)
	if _, err := w.bw.WriteString(segmentMagic); err != nil {
		return err
	}
	if err := w.bw.WriteByte(segmentVersion); err != nil {
		return err
	}
	w.written = len(segmentMagic) + 1
	w.prune()
	return nil
}

// prune deletes old segments past either retention bound: the count cap
// (oldest beyond MaxSegments) and the age cap (modification time older
// than MaxAge). The just-opened active file is never pruned. Age checks
// run only at rotation, so an idle store keeps its last files — age
// expiry of in-memory chunks (store.go) is what bounds what queries see.
func (w *segmentWriter) prune() {
	if w.maxSegments <= 0 && w.maxAge <= 0 {
		return
	}
	files, err := listSegments(w.dir)
	if err != nil {
		return
	}
	if w.maxSegments > 0 {
		for len(files) > w.maxSegments {
			os.Remove(files[0])
			files = files[1:]
		}
	}
	if w.maxAge > 0 {
		cutoff := time.Now().Add(-w.maxAge)
		for _, path := range files {
			if filepath.Base(path) == fmt.Sprintf("seg-%06d.htsd", w.seq) {
				continue
			}
			if info, err := os.Stat(path); err == nil && info.ModTime().Before(cutoff) {
				os.Remove(path)
			}
		}
	}
}

func (w *segmentWriter) record(kind byte, payload []byte) {
	if w.err != nil {
		return
	}
	var hdr [5]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		w.err = err
		return
	}
	if _, err := w.bw.Write(payload); err != nil {
		w.err = err
		return
	}
	w.written += len(hdr) + len(payload)
}

// writeChunk appends one sealed chunk, emitting the series' schema
// record first if this segment has not announced it yet.
func (w *segmentWriter) writeChunk(id uint32, key SeriesKey, data []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if !w.announced[id] {
		schema := make([]byte, 0, 10+len(key.Name))
		schema = binary.BigEndian.AppendUint32(schema, id)
		schema = binary.BigEndian.AppendUint32(schema, key.Pole)
		schema = binary.BigEndian.AppendUint16(schema, uint16(len(key.Name)))
		schema = append(schema, key.Name...)
		w.record(recSchema, schema)
		w.announced[id] = true
	}
	payload := make([]byte, 0, 4+len(data))
	payload = binary.BigEndian.AppendUint32(payload, id)
	payload = append(payload, data...)
	w.record(recChunk, payload)
	if w.written >= w.maxBytes {
		if err := w.rotate(); err != nil && w.err == nil {
			w.err = err
		}
	}
}

func (w *segmentWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	w.f = nil
	return w.err
}

// SegmentSeries is one series' content within one segment file.
type SegmentSeries struct {
	Key     SeriesKey
	Samples []Sample
}

// ReadSegment decodes one segment file into its per-series samples, in
// order of first appearance. It needs nothing beyond the file itself:
// the schema records a segment carries are, by construction, exactly the
// ones its chunks reference.
func ReadSegment(path string) ([]SegmentSeries, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("tsdb: segment stat: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, len(segmentMagic)+1)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("tsdb: segment header: %w", err)
	}
	if string(hdr[:len(segmentMagic)]) != segmentMagic {
		return nil, fmt.Errorf("tsdb: bad segment magic %q", hdr[:len(segmentMagic)])
	}
	if hdr[len(segmentMagic)] != segmentVersion {
		return nil, fmt.Errorf("tsdb: unsupported segment version %d", hdr[len(segmentMagic)])
	}

	keys := make(map[uint32]SeriesKey)
	index := make(map[uint32]int)
	var out []SegmentSeries
	var rec [5]byte
	left := info.Size() - int64(len(hdr)) // bytes of the file not yet read
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("tsdb: segment record header: %w", err)
		}
		left -= int64(len(rec))
		// The length is read from disk: a record cannot be longer than
		// the file, so a corrupt one fails here, not in a 4 GiB make.
		size := binary.BigEndian.Uint32(rec[1:])
		if int64(size) > left {
			return out, fmt.Errorf("tsdb: segment record of %d bytes with %d left in the file", size, left)
		}
		left -= int64(size)
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			return out, fmt.Errorf("tsdb: segment record body: %w", err)
		}
		switch rec[0] {
		case recSchema:
			if len(payload) < 10 {
				return out, fmt.Errorf("tsdb: short schema record")
			}
			id := binary.BigEndian.Uint32(payload)
			pole := binary.BigEndian.Uint32(payload[4:])
			nameLen := int(binary.BigEndian.Uint16(payload[8:]))
			if len(payload) < 10+nameLen {
				return out, fmt.Errorf("tsdb: truncated schema name")
			}
			keys[id] = SeriesKey{Pole: pole, Name: string(payload[10 : 10+nameLen])}
		case recChunk:
			if len(payload) < 4 {
				return out, fmt.Errorf("tsdb: short chunk record")
			}
			id := binary.BigEndian.Uint32(payload)
			key, ok := keys[id]
			if !ok {
				return out, fmt.Errorf("tsdb: chunk for unannounced series %d", id)
			}
			i, ok := index[id]
			if !ok {
				i = len(out)
				index[id] = i
				out = append(out, SegmentSeries{Key: key})
			}
			samples, err := DecodeChunkData(payload[4:], out[i].Samples)
			if err != nil {
				return out, err
			}
			out[i].Samples = samples
		default:
			return out, fmt.Errorf("tsdb: unknown record kind %d", rec[0])
		}
	}
}

// ReadDir reads every segment in the directory in sequence order and
// merges the per-series samples across files.
func ReadDir(dir string) ([]SegmentSeries, error) {
	files, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	index := make(map[SeriesKey]int)
	var out []SegmentSeries
	for _, path := range files {
		segs, err := ReadSegment(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
		for _, ss := range segs {
			i, ok := index[ss.Key]
			if !ok {
				i = len(out)
				index[ss.Key] = i
				out = append(out, SegmentSeries{Key: ss.Key})
			}
			out[i].Samples = append(out[i].Samples, ss.Samples...)
		}
	}
	return out, nil
}
