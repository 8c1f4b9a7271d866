package tsdb

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := map[SeriesKey][]Sample{}
	for pole := uint32(1); pole <= 3; pole++ {
		sr := small(st.Series(pole, "count"), 8)
		for i := 0; i < 50; i++ {
			ts := int64(i) * 1_000_000_000
			v := float64(pole*100) + float64(i)
			sr.Append(ts, v)
			k := SeriesKey{Pole: pole, Name: "count"}
			want[k] = append(want[k], Sample{TS: ts, V: v})
		}
	}
	st.SealAll()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	got, _, err := readDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d series, want %d", len(got), len(want))
	}
	for _, ss := range got {
		w, ok := want[ss.Key]
		if !ok {
			t.Fatalf("unexpected series %+v", ss.Key)
		}
		sameSamples(t, ss.Samples, w)
	}
}

// TestSegmentRotationAndSchemaReEmission forces tiny segments, and keeps
// every file, so chunks spread across many files, then checks (a) every
// file decodes on its own — the per-segment schema re-emission contract —
// and (b) the merged read equals what was appended.
func TestSegmentRotationAndSchemaReEmission(t *testing.T) {
	dir := t.TempDir()
	st, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st.disk.maxBytes, st.disk.maxSegments = 256, 1<<30
	sr := small(st.Series(42, "pole_temp_c"), 4)
	var want []Sample
	for i := 0; i < 400; i++ {
		ts := int64(i) * 102_000_000_000
		v := 20 + math.Sin(float64(i)/10)
		sr.Append(ts, v)
		want = append(want, Sample{TS: ts, V: v})
	}
	st.SealAll()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "seg-*.htsd"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("%d segment files, want rotation to produce several", len(files))
	}
	for _, f := range files {
		segs, _, err := readSegment(f)
		if err != nil {
			t.Fatalf("%s: standalone read failed: %v", filepath.Base(f), err)
		}
		for _, ss := range segs {
			if ss.Key != (SeriesKey{Pole: 42, Name: "pole_temp_c"}) {
				t.Fatalf("%s: schema decoded to %+v", filepath.Base(f), ss.Key)
			}
		}
	}
	got, _, err := readDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("merged to %d series, want 1", len(got))
	}
	sameSamples(t, got[0].Samples, want)
}

// TestSegmentRetentionPrunesOldFiles rotates tiny segments far past
// maxSegments and requires the directory to keep at most that many.
func TestSegmentRetentionPrunesOldFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st.disk.maxBytes = 128
	sr := small(st.Series(1, "count"), 4)
	for i := 0; i < 1000; i++ {
		sr.Append(int64(i)*1_000_000_000, float64(i*i)) // growing deltas defeat RLE
	}
	st.SealAll()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.htsd"))
	if len(files) > maxSegments {
		t.Fatalf("%d segment files retained, want <= %d", len(files), maxSegments)
	}
	if _, _, err := readDir(dir); err != nil {
		t.Fatalf("pruned directory no longer reads: %v", err)
	}
}

func TestSegmentSequenceResumesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st.Append(1, "count", 1, 1)
	st.Append(1, "count", 2, 2)
	st.SealAll()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join(dir, "seg-*.htsd"))

	st2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st2.Append(1, "count", 3, 3)
	st2.Append(1, "count", 4, 4)
	st2.SealAll()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "seg-*.htsd"))
	if len(after) <= len(before) {
		t.Fatalf("restart reused a segment file: %d files before, %d after", len(before), len(after))
	}
	merged, _, err := readDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 {
		t.Fatalf("merged to %d series, want 1", len(merged))
	}
	sameSamples(t, merged[0].Samples, []Sample{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
}

func TestReadSegmentRejectsCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000001.htsd")
	if err := os.WriteFile(path, []byte("NOPE\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readSegment(path); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestReadSegmentRejectsOversizedRecord: a record header read from disk
// that claims more bytes than the file holds fails the read before
// anything that size is allocated — one corrupt length must not make
// opening a directory ask for 4 GiB.
func TestReadSegmentRejectsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-000001.htsd")
	data := append([]byte(segmentMagic), segmentVersion, recSchema, 0xFF, 0xFF, 0xFF, 0xFF)
	data = append(data, make([]byte, 64)...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readSegment(path)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a record claiming 0xFFFFFFFF bytes in a 74-byte file was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("reading the corrupt segment allocated %d bytes, want under 1 MB", got)
	}
}

// fuzzSegment writes a real segment through segmentWriter: two series,
// three chunks each, interleaved, with NaN and -0 among the values.
func fuzzSegment(tb testing.TB) []byte {
	dir := tb.TempDir()
	w, err := newSegmentWriter(dir)
	if err != nil {
		tb.Fatal(err)
	}
	keys := []SeriesKey{{Pole: 1, Name: "count"}, {Pole: 2, Name: "pole_temp_c"}}
	for c := 0; c < 3; c++ {
		for id, key := range keys {
			ts := []int64{int64(c) * 3_000_000_000, int64(c)*3_000_000_000 + 1_000_000_000}
			vals := []float64{float64(c), math.NaN()}
			if id == 1 {
				vals = []float64{21.5 + float64(c), math.Copysign(0, -1)}
			}
			chunk, err := EncodeChunk(ts, vals)
			if err != nil {
				tb.Fatal(err)
			}
			w.writeChunk(uint32(id+1), key, chunk.data)
		}
	}
	if err := w.close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "seg-000001.htsd"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// readSegmentBytes writes data to a fresh segment file and reads it back.
func readSegmentBytes(t *testing.T, data []byte) ([]segmentSeries, int64, error) {
	path := filepath.Join(t.TempDir(), "seg-000001.htsd")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return readSegment(path)
}

// FuzzReadSegment feeds arbitrary bytes to the segment reader. It must
// not panic and must report a good prefix inside the file — all of it on
// success. When the file reads cleanly or ends early, the good prefix is
// what readDir truncates a torn file to, so re-read on its own it must
// decode without error to the same series, samples equal bit for bit.
func FuzzReadSegment(f *testing.F) {
	seg := fuzzSegment(f)
	head := seg[:len(segmentMagic)+1]
	record := func(kind byte, length uint32, payload ...byte) []byte {
		out := append(slices.Clone(head), kind)
		out = binary.BigEndian.AppendUint32(out, length)
		return append(out, payload...)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])                                   // cut mid-record
	f.Add(append([]byte("HTSX"), seg[len(segmentMagic):]...)) // bad magic
	f.Add(record(9, 0))                                       // unknown record kind
	f.Add(record(recSchema, 0xFFFFFFFF, make([]byte, 16)...)) // length past the file
	f.Add(record(recChunk, 4, 0, 0, 0, 7))                    // unannounced series
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, good, err := readSegmentBytes(t, data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good = %d outside a %d-byte file", good, len(data))
		}
		if err == nil && good != int64(len(data)) {
			t.Fatalf("clean read of %d bytes reports good = %d", len(data), good)
		}
		torn := errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
		if (err != nil && !torn) || good < int64(len(head)) {
			return
		}
		again, _, err := readSegmentBytes(t, data[:good])
		if err != nil {
			t.Fatalf("good prefix of %d bytes does not re-read: %v", good, err)
		}
		if len(again) != len(out) {
			t.Fatalf("good prefix re-reads to %d series, want %d", len(again), len(out))
		}
		for i := range out {
			if again[i].Key != out[i].Key || len(again[i].Samples) != len(out[i].Samples) {
				t.Fatalf("series %d re-reads as %+v with %d samples, want %+v with %d",
					i, again[i].Key, len(again[i].Samples), out[i].Key, len(out[i].Samples))
			}
			for k, s := range out[i].Samples {
				g := again[i].Samples[k]
				if g.TS != s.TS || math.Float64bits(g.V) != math.Float64bits(s.V) {
					t.Fatalf("series %d sample %d re-reads as %+v, want %+v", i, k, g, s)
				}
			}
		}
	})
}
