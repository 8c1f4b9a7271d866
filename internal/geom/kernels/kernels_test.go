package kernels

import (
	"fmt"
	"strings"
	"testing"
)

func TestSetVectorizedToggle(t *testing.T) {
	orig := Vectorized()
	defer SetVectorized(orig)

	if prev := SetVectorized(false); prev != orig {
		t.Fatalf("SetVectorized returned prev=%v, want %v", prev, orig)
	}
	if Vectorized() {
		t.Fatal("Vectorized() true after SetVectorized(false)")
	}
	SetVectorized(true)
	// On AVX2 hardware this re-enables; elsewhere it must stay off
	// rather than faulting.
	if Vectorized() != useAVX2 {
		t.Fatalf("Vectorized() = %v after SetVectorized(true), want %v", Vectorized(), useAVX2)
	}
}

// TestLengthMismatchPanics holds every kernel's argument checks: each
// call below breaks one stated precondition and must panic with the
// message naming it, with the kernels on and off — before any vector
// code could read or write past a slice.
func TestLengthMismatchPanics(t *testing.T) {
	const n, p = 8, 8 + PairPad // points in a pair layout, and its padded length
	f := func(m int) []float64 { return make([]float64, m) }
	i64 := func(m int) []int64 { return make([]int64, m) }
	var mins [16]float64
	var top [17]uint64
	cases := []struct {
		name, want string
		call       func()
	}{
		{"PairCount a0 > a1", "pair ranges", func() { PairCount(i64(p), i64(p), f(p), f(p), f(p), 3, 2, 0, n, 1) }},
		{"PairCount negative b0", "pair ranges", func() { PairCount(i64(p), i64(p), f(p), f(p), f(p), 0, 2, -1, n, 1) }},
		{"PairCount zs without pad", "PairPad", func() { PairCount(i64(p), i64(p), f(p), f(p), f(n), 0, 2, 0, n, 1) }},
		{"PairCount back without pad", "PairPad", func() { PairCount(i64(p), i64(n), f(p), f(p), f(p), 0, n, 0, n, 1) }},
		{"PairFill b0 > b1", "pair ranges", func() {
			PairFill(i64(p), make([]int32, 64), f(64), f(p), f(p), f(p), 0, 2, 5, 4, 1, false)
		}},
		{"PairFill end without pad", "PairPad", func() {
			PairFill(i64(n), make([]int32, 64), f(64), f(p), f(p), f(p), 0, n, 0, n, 1, false)
		}},
		{"PairFill fewer distance slots", "distance slots", func() {
			PairFill(i64(p), make([]int32, 64), f(63), f(p), f(p), f(p), 0, 2, 0, n, 1, false)
		}},
		{"PairFill no slots", "distance slots", func() {
			PairFill(i64(p), nil, nil, f(p), f(p), f(p), 0, 2, 0, n, 1, true)
		}},
		{"MaskLE short bits", "bit for every distance", func() { MaskLE(make([]uint64, 1), f(65), 1) }},
		{"MaskLE no bits", "bit for every distance", func() { MaskLE(nil, f(1), 1) }},
		{"Dist2Min16 length mismatch", "multiple of 16", func() { Dist2Min16(f(16), f(16), f(15), f(16), 0, 0, 0, &mins, 1) }},
		{"Dist2Min16 not a multiple of 16", "multiple of 16", func() { Dist2Min16(f(24), f(24), f(24), f(24), 0, 0, 0, &mins, 1) }},
		{"Dist2Min16 empty", "multiple of 16", func() { Dist2Min16(nil, nil, nil, nil, 0, 0, 0, &mins, 1) }},
		{"Dist2Min16 k = 0", "1 ≤ k ≤ 16", func() { Dist2Min16(f(16), f(16), f(16), f(16), 0, 0, 0, &mins, 0) }},
		{"Dist2Min16 k = 17", "1 ≤ k ≤ 16", func() { Dist2Min16(f(16), f(16), f(16), f(16), 0, 0, 0, &mins, 17) }},
		{"SelectLE not a multiple of 8", "multiple of 8", func() { SelectLE(make([]int32, 12), f(12), 1, 15, 1, &top) }},
		{"SelectLE empty", "multiple of 8", func() { SelectLE(nil, nil, 1, 15, 1, &top) }},
		{"SelectLE short idx", "multiple of 8", func() { SelectLE(make([]int32, 15), f(16), 1, 15, 1, &top) }},
		{"SelectLE k = 0", "1 ≤ k ≤ 16", func() { SelectLE(make([]int32, 16), f(16), 1, 15, 0, &top) }},
		{"SelectLE k = 17", "1 ≤ k ≤ 16", func() { SelectLE(make([]int32, 16), f(16), 1, 15, 17, &top) }},
		{"SelectLE low mask not 2ᵇ-1", "low mask", func() { SelectLE(make([]int32, 16), f(16), 1, 5, 1, &top) }},
	}
	orig := Vectorized()
	defer SetVectorized(orig)
	for _, vec := range []bool{true, false} {
		SetVectorized(vec)
		for _, c := range cases {
			func() {
				defer func() {
					r := recover()
					if msg := fmt.Sprint(r); r == nil || !strings.Contains(msg, c.want) {
						t.Errorf("vectorized=%v %s: panic %v, want one naming %q", vec, c.name, r, c.want)
					}
				}()
				c.call()
			}()
		}
	}
}
