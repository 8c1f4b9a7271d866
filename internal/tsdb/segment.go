package tsdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
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
// sequence number; the writer rotates once a file exceeds segmentBytes
// and deletes the oldest files beyond maxSegments.
//
// A crash can interrupt a write, so a file may end inside a record (a
// torn tail). Reading the directory back keeps every complete record
// before the cut and truncates the file to the last of them; a file cut
// inside its header holds no record and is removed. Every other
// malformation — bad magic or version, an unknown record kind, a chunk
// for a series the file has not announced, a corrupt chunk payload —
// fails the read.
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
	maxBytes    int // segmentBytes; tests shrink it to rotate in a few chunks
	maxSegments int

	f         *os.File
	bw        *bufio.Writer
	written   int
	seq       int
	announced map[uint32]bool
	err       error
}

func newSegmentWriter(dir string) (*segmentWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: segment dir: %w", err)
	}
	w := &segmentWriter{dir: dir, maxBytes: segmentBytes, maxSegments: maxSegments}
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

// prune deletes the oldest segments beyond maxSegments. The just-opened
// active file is the newest, so it is never pruned.
func (w *segmentWriter) prune() {
	files, err := listSegments(w.dir)
	if err != nil {
		return
	}
	for len(files) > w.maxSegments {
		os.Remove(files[0])
		files = files[1:]
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

// segmentSeries is one series' content within one segment file.
type segmentSeries struct {
	Key     SeriesKey
	Samples []Sample
}

// readSegment decodes one segment file into its per-series samples, in
// order of first appearance. It needs nothing beyond the file itself:
// the schema records a segment carries are, by construction, exactly the
// ones its chunks reference. On any error it still returns the records
// before it and good, the offset where the last complete one ends (0 when
// the header is not whole); a file that ends inside a record fails with
// io.ErrUnexpectedEOF, or io.EOF when it is empty.
func readSegment(path string) (out []segmentSeries, good int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("tsdb: segment stat: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, len(segmentMagic)+1)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, 0, fmt.Errorf("tsdb: segment header: %w", err)
	}
	if string(hdr[:len(segmentMagic)]) != segmentMagic {
		return nil, 0, fmt.Errorf("tsdb: bad segment magic %q", hdr[:len(segmentMagic)])
	}
	if hdr[len(segmentMagic)] != segmentVersion {
		return nil, 0, fmt.Errorf("tsdb: unsupported segment version %d", hdr[len(segmentMagic)])
	}

	keys := make(map[uint32]SeriesKey)
	index := make(map[uint32]int)
	var rec [5]byte
	good = int64(len(hdr))
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				return out, good, nil
			}
			return out, good, fmt.Errorf("tsdb: segment record header: %w", err)
		}
		// The length is read from disk: a record cannot be longer than
		// the file, so a corrupt one fails here, not in a 4 GiB make.
		size := binary.BigEndian.Uint32(rec[1:])
		if left := info.Size() - good - int64(len(rec)); int64(size) > left {
			return out, good, fmt.Errorf("tsdb: segment record of %d bytes with %d left in the file: %w", size, left, io.ErrUnexpectedEOF)
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			return out, good, fmt.Errorf("tsdb: segment record body: %w", err)
		}
		switch rec[0] {
		case recSchema:
			if len(payload) < 10 {
				return out, good, fmt.Errorf("tsdb: short schema record")
			}
			id := binary.BigEndian.Uint32(payload)
			pole := binary.BigEndian.Uint32(payload[4:])
			nameLen := int(binary.BigEndian.Uint16(payload[8:]))
			if len(payload) < 10+nameLen {
				return out, good, fmt.Errorf("tsdb: truncated schema name")
			}
			keys[id] = SeriesKey{Pole: pole, Name: string(payload[10 : 10+nameLen])}
		case recChunk:
			if len(payload) < 4 {
				return out, good, fmt.Errorf("tsdb: short chunk record")
			}
			id := binary.BigEndian.Uint32(payload)
			key, ok := keys[id]
			if !ok {
				return out, good, fmt.Errorf("tsdb: chunk for unannounced series %d", id)
			}
			i, ok := index[id]
			if !ok {
				i = len(out)
				index[id] = i
				out = append(out, segmentSeries{Key: key})
			}
			samples, err := DecodeChunkData(payload[4:], out[i].Samples)
			if err != nil {
				return out, good, err
			}
			out[i].Samples = samples
		default:
			return out, good, fmt.Errorf("tsdb: unknown record kind %d", rec[0])
		}
		good += int64(len(rec)) + int64(size)
	}
}

// readDir reads every segment in the directory back in sequence order and
// merges the per-series samples across files. It recovers torn tails as
// the format comment above describes, and cut counts the bytes dropped.
func readDir(dir string) (out []segmentSeries, cut int64, err error) {
	files, err := listSegments(dir)
	if err != nil {
		return nil, 0, err
	}
	index := make(map[SeriesKey]int)
	for _, path := range files {
		segs, good, err := readSegment(path)
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			var n int64
			n, err = truncateSegment(path, good)
			cut += n
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
		for _, ss := range segs {
			i, ok := index[ss.Key]
			if !ok {
				i = len(out)
				index[ss.Key] = i
				out = append(out, segmentSeries{Key: ss.Key})
			}
			out[i].Samples = append(out[i].Samples, ss.Samples...)
		}
	}
	return out, cut, nil
}

// truncateSegment cuts a torn segment back to its first good bytes,
// removing it when good is 0, and returns how many bytes it dropped.
func truncateSegment(path string, good int64) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if good == 0 {
		err = os.Remove(path)
	} else {
		err = os.Truncate(path, good)
	}
	if err != nil {
		return 0, err
	}
	return info.Size() - good, nil
}
