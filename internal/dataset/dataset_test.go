package dataset

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"hawccc/internal/ground"
)

func TestSinglePersonSamples(t *testing.T) {
	g := NewGenerator(1)
	samples := g.SinglePerson(20)
	if len(samples) != 20 {
		t.Fatalf("got %d samples", len(samples))
	}
	roi := g.roi
	for i, s := range samples {
		if !s.Human {
			t.Fatalf("sample %d not labeled human", i)
		}
		if len(s.Cloud) < MinVisiblePoints {
			t.Fatalf("sample %d has %d points < MinVisiblePoints", i, len(s.Cloud))
		}
		for _, p := range s.Cloud {
			if !roi.Contains(p) {
				t.Fatalf("sample %d point %v outside ROI", i, p)
			}
			if p.Z < ground.DefaultZMin {
				t.Fatalf("sample %d retains ground noise at z=%v", i, p.Z)
			}
		}
	}
}

func TestObjectSamples(t *testing.T) {
	g := NewGenerator(2)
	samples := g.Objects(20)
	if len(samples) != 20 {
		t.Fatalf("got %d samples", len(samples))
	}
	for i, s := range samples {
		if s.Human {
			t.Fatalf("object sample %d labeled human", i)
		}
		if len(s.Cloud) < MinVisiblePoints {
			t.Fatalf("object sample %d too small", i)
		}
	}
}

func TestClassificationBalanced(t *testing.T) {
	g := NewGenerator(3)
	samples := g.Classification(15)
	if len(samples) != 30 {
		t.Fatalf("got %d samples, want 30", len(samples))
	}
	humans := 0
	for _, s := range samples {
		if s.Human {
			humans++
		}
	}
	if humans != 15 {
		t.Errorf("humans = %d, want 15", humans)
	}
}

func TestCrowdFrames(t *testing.T) {
	g := NewGenerator(4)
	frames := g.CrowdFrames(5, 1, 4, 2)
	if len(frames) != 5 {
		t.Fatalf("got %d frames", len(frames))
	}
	for i, f := range frames {
		if len(f.Cloud) == 0 {
			t.Fatalf("frame %d empty", i)
		}
		if f.Count < 0 || f.Count > 4 {
			t.Fatalf("frame %d count %d outside [0,4]", i, f.Count)
		}
	}
}

func TestCrowdFramesPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGenerator(1).CrowdFrames(1, 5, 2, 0)
}

func TestHighDensityFrame(t *testing.T) {
	g := NewGenerator(5)
	pool := g.SinglePerson(10)
	objects := g.Objects(5)
	rng := rand.New(rand.NewSource(9))
	f := HighDensityFrame(rng, pool, objects, 20)
	if f.Count != 20 {
		t.Errorf("Count = %d, want 20", f.Count)
	}
	if len(f.Cloud) < 20*MinVisiblePoints {
		t.Errorf("high-density cloud suspiciously small: %d points", len(f.Cloud))
	}
	// Offsets are bounded: the synthetic crowd spans 7–40 m from the
	// sensor (12−5 to 35+5) plus body extent.
	b := f.Cloud.Bounds()
	if b.Min.X < 7-1.5 || b.Max.X > 40+1.5 {
		t.Errorf("x bounds [%v, %v] exceed the 7–40 m envelope", b.Min.X, b.Max.X)
	}
}

func TestHighDensityFrameSeparation(t *testing.T) {
	g := NewGenerator(15)
	pool := g.SinglePerson(30)
	rng := rand.New(rand.NewSource(4))
	f := HighDensityFrame(rng, pool, nil, 40)
	if f.Count != 40 {
		t.Fatalf("Count = %d", f.Count)
	}
	// With rejection sampling at moderate density, most pairs respect the
	// separation; a sanity check that the frame is not one coincident blob.
	b := f.Cloud.Bounds()
	if b.Size().X < 10 || b.Size().Y < 5 {
		t.Errorf("crowd suspiciously compact: %v", b.Size())
	}
}

func TestHighDensityFramePanicsOnEmptyPool(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HighDensityFrame(rand.New(rand.NewSource(1)), nil, nil, 5)
}

func TestTrainTestSplit(t *testing.T) {
	g := NewGenerator(6)
	samples := g.Classification(25) // 50 total
	split := TrainTestSplit(rand.New(rand.NewSource(1)), samples, 0.8)
	if len(split.Train) != 40 || len(split.Test) != 10 {
		t.Errorf("split sizes %d/%d, want 40/10", len(split.Train), len(split.Test))
	}
	// Splitting must not mutate the input order (copy semantics).
	if &samples[0] == &split.Train[0] {
		// Same backing array start would mean shuffle hit the caller.
		t.Log("note: split copies input; addresses differ")
	}
}

func TestSubset(t *testing.T) {
	g := NewGenerator(7)
	samples := g.Classification(50) // 100 total
	rng := rand.New(rand.NewSource(2))

	tenth := Subset(rng, samples, 0.1)
	if len(tenth) != 10 {
		t.Errorf("10%% subset = %d samples, want 10", len(tenth))
	}
	// Balanced: half humans.
	humans := 0
	for _, s := range tenth {
		if s.Human {
			humans++
		}
	}
	if humans != 5 {
		t.Errorf("subset humans = %d, want 5", humans)
	}

	// Tiny fraction floors at 2 with both classes present.
	tiny := Subset(rng, samples, 0.001)
	if len(tiny) != 2 {
		t.Fatalf("tiny subset = %d, want 2", len(tiny))
	}
	if tiny[0].Human == tiny[1].Human {
		t.Error("tiny subset should span both classes")
	}

	if got := Subset(rng, samples, 1.5); len(got) != len(samples) {
		t.Error("frac >= 1 should return all")
	}
}

func TestMaxPoints(t *testing.T) {
	g := NewGenerator(8)
	samples := g.SinglePerson(10)
	maxN := MaxPoints(samples)
	if maxN < MinVisiblePoints {
		t.Errorf("MaxPoints = %d", maxN)
	}
	for _, s := range samples {
		if len(s.Cloud) > maxN {
			t.Error("MaxPoints not maximal")
		}
	}
	if MaxPoints(nil) != 0 {
		t.Error("empty MaxPoints should be 0")
	}
}

func TestSampleRoundTrip(t *testing.T) {
	g := NewGenerator(9)
	samples := g.Classification(5)
	var buf bytes.Buffer
	if err := WriteSamples(&buf, samples); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("round trip %d samples, want %d", len(got), len(samples))
	}
	for i := range got {
		if got[i].Human != samples[i].Human || len(got[i].Cloud) != len(samples[i].Cloud) {
			t.Fatalf("sample %d mismatch", i)
		}
		// float32 round trip: coordinates within 1e-4.
		for j := range got[i].Cloud {
			d := got[i].Cloud[j].Dist(samples[i].Cloud[j])
			if d > 1e-4 {
				t.Fatalf("sample %d point %d drifted %v", i, j, d)
			}
		}
	}
}

func TestFrameRoundTripViaFiles(t *testing.T) {
	g := NewGenerator(10)
	frames := g.CrowdFrames(3, 1, 2, 1)
	path := filepath.Join(t.TempDir(), "frames.hwcc")
	if err := SaveFrames(path, frames); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFrames(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("loaded %d frames", len(got))
	}
	for i := range got {
		if got[i].Count != frames[i].Count || len(got[i].Cloud) != len(frames[i].Cloud) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestReadRejectsCorruptData(t *testing.T) {
	if _, err := ReadSamples(bytes.NewReader([]byte("XXXX___"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Frames file read as samples must fail on kind.
	var buf bytes.Buffer
	if err := WriteFrames(&buf, []Frame{{Count: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSamples(&buf); err == nil {
		t.Error("kind mismatch accepted")
	}
	// Truncated stream.
	var buf2 bytes.Buffer
	g := NewGenerator(11)
	if err := WriteSamples(&buf2, g.SinglePerson(2)); err != nil {
		t.Fatal(err)
	}
	trunc := buf2.Bytes()[:buf2.Len()-10]
	if _, err := ReadSamples(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := LoadSamples(filepath.Join(t.TempDir(), "nope.hwcc")); err == nil {
		t.Error("missing file should error")
	}
	if _, err := LoadFrames(filepath.Join(t.TempDir(), "nope.hwcc")); err == nil {
		t.Error("missing file should error")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(77).Classification(5)
	b := NewGenerator(77).Classification(5)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i].Human != b[i].Human || len(a[i].Cloud) != len(b[i].Cloud) {
			t.Fatalf("sample %d differs across identical seeds", i)
		}
	}
}

func TestCrowdSourceMatchesCrowdFrames(t *testing.T) {
	want := NewGenerator(51).CrowdFrames(5, 1, 4, 2)
	src := NewGenerator(51).CrowdSource(5, 1, 4, 2)
	for i := range want {
		got, err := src.NextFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Count != want[i].Count || len(got.Cloud) != len(want[i].Cloud) {
			t.Fatalf("frame %d: streamed count=%d points=%d, batch count=%d points=%d",
				i, got.Count, len(got.Cloud), want[i].Count, len(want[i].Cloud))
		}
		for p := range want[i].Cloud {
			if got.Cloud[p] != want[i].Cloud[p] {
				t.Fatalf("frame %d point %d differs", i, p)
			}
		}
	}
	if _, err := src.NextFrame(); err != io.EOF {
		t.Fatalf("exhausted source returned %v, want io.EOF", err)
	}
}

func TestCrowdSourceUnbounded(t *testing.T) {
	src := NewGenerator(52).CrowdSource(-1, 1, 3, 1)
	for i := 0; i < 12; i++ {
		f, err := src.NextFrame()
		if err != nil {
			t.Fatalf("frame %d: unbounded source returned %v", i, err)
		}
		if f.Count < 1 || f.Count > 3 {
			t.Errorf("frame %d: truth %d outside [1, 3]", i, f.Count)
		}
		if len(f.Cloud) == 0 {
			t.Errorf("frame %d: empty capture", i)
		}
	}
}
