package tsdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestWarmStartRoundTrip seals two poles' series to disk, reopens the
// directory, and requires bit-identical reads plus continued appends that
// a third generation also restores.
func TestWarmStartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir}

	st1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pole := uint32(1); pole <= 2; pole++ {
		sr := small(st1.Series(pole, "count"), 8)
		for i := 0; i < 50; i++ {
			sr.Append(int64(1000*i), float64(pole)*100+float64(i))
		}
	}
	st1.SealAll()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Loaded; got != 100 {
		t.Fatalf("loaded %d samples, want 100", got)
	}
	for pole := uint32(1); pole <= 2; pole++ {
		sr, ok := st2.Lookup(pole, "count")
		if !ok {
			t.Fatalf("pole %d series missing after warm start", pole)
		}
		got, err := sr.QueryRaw(0, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 50 {
			t.Fatalf("pole %d: %d samples after warm start, want 50", pole, len(got))
		}
		for i, smp := range got {
			if smp.TS != int64(1000*i) || smp.V != float64(pole)*100+float64(i) {
				t.Fatalf("pole %d sample %d = %+v", pole, i, smp)
			}
		}
	}

	// Appends continue past the restored history and persist in turn.
	sr := st2.Series(1, "count")
	for i := 50; i < 60; i++ {
		sr.Append(int64(1000*i), float64(100+i))
	}
	st2.SealAll()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	sr3, _ := st3.Lookup(1, "count")
	got, err := sr3.QueryRaw(0, 1<<60)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 {
		t.Fatalf("third generation sees %d samples, want 60", len(got))
	}
	if got[59].TS != 59000 || got[59].V != 159 {
		t.Fatalf("tail sample = %+v", got[59])
	}
}

// segmentRecords walks a segment's framing — the 5-byte header, then
// kind, length and payload per record — without decoding a chunk. It
// returns where each record ends and, for a chunk record, the pole its
// series was announced with (0 for a schema record).
func segmentRecords(t *testing.T, data []byte) (ends []int, poles []uint32) {
	t.Helper()
	pole := map[uint32]uint32{}
	for off := 5; off < len(data); {
		kind, size := data[off], int(binary.BigEndian.Uint32(data[off+1:]))
		payload := data[off+5 : off+5+size]
		id := binary.BigEndian.Uint32(payload)
		switch kind {
		case recSchema:
			pole[id] = binary.BigEndian.Uint32(payload[4:])
			poles = append(poles, 0)
		case recChunk:
			poles = append(poles, pole[id])
		default:
			t.Fatalf("record kind %d at offset %d", kind, off)
		}
		off += 5 + size
		ends = append(ends, off)
	}
	return ends, poles
}

// TestTornTailAtEveryOffset is the crash test. A directory holds two
// generations of two series, and the newest segment is cut at every byte
// offset, as a crash in the middle of a write would leave it. Opening the
// directory must succeed and load exactly the samples of the complete
// records before the cut, bit for bit; Stats must count the bytes after
// them, and a second open must find nothing left to cut.
func TestTornTailAtEveryOffset(t *testing.T) {
	const chunk = 8
	src := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	older, newer := map[uint32][]Sample{}, map[uint32][]Sample{}
	ts := int64(0)
	// generation appends chunks×chunk samples to each series on a store
	// opened on src: pole 1 takes arbitrary bit patterns (NaN payloads
	// included), pole 2 integral counts.
	generation := func(chunks int, into map[uint32][]Sample) {
		st, err := New(Config{Dir: src})
		if err != nil {
			t.Fatal(err)
		}
		a, b := small(st.Series(1, "v"), chunk), small(st.Series(2, "v"), chunk)
		for i := 0; i < chunks*chunk; i++ {
			ts += 1_000_000_000
			va, vb := math.Float64frombits(rng.Uint64()), float64(rng.Intn(40))
			a.Append(ts, va)
			b.Append(ts, vb)
			into[1] = append(into[1], Sample{ts, va})
			into[2] = append(into[2], Sample{ts, vb})
		}
		st.SealAll()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	generation(2, older)
	generation(3, newer)

	files, err := listSegments(src)
	if err != nil || len(files) != 2 {
		t.Fatalf("%d segment files (%v), want one per generation", len(files), err)
	}
	first, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	ends, poles := segmentRecords(t, data)

	base := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		dir := filepath.Join(base, fmt.Sprint(cut))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(files[0])), first, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(files[1])), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// The complete records before the cut: none while the header is
		// incomplete, and the file is then removed whole.
		good, chunks := 0, map[uint32]int{}
		if cut >= 5 {
			good = 5
			for i, end := range ends {
				if end > cut {
					break
				}
				good = end
				if poles[i] != 0 {
					chunks[poles[i]]++
				}
			}
		}
		for open, wantCut := range []int{cut - good, 0} {
			st, err := New(Config{Dir: dir})
			if err != nil {
				t.Fatalf("cut at %d, open %d: %v", cut, open+1, err)
			}
			stats := st.Stats()
			if stats.TruncatedBytes != uint64(wantCut) {
				t.Fatalf("cut at %d, open %d: %d bytes truncated, want %d", cut, open+1, stats.TruncatedBytes, wantCut)
			}
			loaded := 0
			for pole := uint32(1); pole <= 2; pole++ {
				want := append(older[pole][:len(older[pole]):len(older[pole])], newer[pole][:chunks[pole]*chunk]...)
				loaded += len(want)
				sr, ok := st.Lookup(pole, "v")
				if !ok {
					t.Fatalf("cut at %d: pole %d missing", cut, pole)
				}
				got, err := sr.QueryRaw(math.MinInt64, math.MaxInt64)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("cut at %d, open %d: pole %d has %d samples, want %d", cut, open+1, pole, len(got), len(want))
				}
				for i := range got {
					if got[i].TS != want[i].TS || math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
						t.Fatalf("cut at %d: pole %d sample %d = (%d, %016x), want (%d, %016x)", cut, pole, i,
							got[i].TS, math.Float64bits(got[i].V), want[i].TS, math.Float64bits(want[i].V))
					}
				}
			}
			if stats.Loaded != uint64(loaded) {
				t.Fatalf("cut at %d, open %d: loaded %d, want %d", cut, open+1, stats.Loaded, loaded)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		// Both segments stay and each open adds its writer's file, unless
		// the cut fell inside the header: the first open removed that file.
		want := 4
		if cut < 5 {
			want = 3
		}
		if files, err := listSegments(dir); len(files) != want {
			t.Fatalf("cut at %d: %d segment files after two opens, want %d (%v)", cut, len(files), want, err)
		}
	}
}

// TestMalformedSegmentFailsNew: only a torn tail is recovered. A segment
// that is whole but wrong fails New, and the file is left as it was.
func TestMalformedSegmentFailsNew(t *testing.T) {
	src := t.TempDir()
	st, err := New(Config{Dir: src})
	if err != nil {
		t.Fatal(err)
	}
	sr := small(st.Series(1, "count"), 4)
	for i := 0; i < 8; i++ {
		sr.Append(int64(i), float64(i))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := listSegments(src)
	if err != nil || len(files) != 1 {
		t.Fatalf("%d segment files (%v), want 1", len(files), err)
	}
	valid, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// The layout is header, schema record, then the first chunk record,
	// whose payload is the series id and the chunk's own bytes.
	ends, _ := segmentRecords(t, valid)
	chunkAt := ends[0]
	for name, corrupt := range map[string]func(b []byte){
		"bad magic":          func(b []byte) { b[0] = 'X' },
		"bad version":        func(b []byte) { b[4] = 9 },
		"unknown kind":       func(b []byte) { b[chunkAt] = 7 },
		"unannounced series": func(b []byte) { binary.BigEndian.PutUint32(b[chunkAt+5:], 999) },
		"corrupt chunk":      func(b []byte) { b[chunkAt+9] ^= 0xFF },
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, filepath.Base(files[0]))
		data := bytes.Clone(valid)
		corrupt(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := New(Config{Dir: dir}); err == nil {
			st.Close()
			t.Errorf("%s: New accepted the segment", name)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Errorf("%s: the failed open changed the file (%v)", name, err)
		}
	}
}
