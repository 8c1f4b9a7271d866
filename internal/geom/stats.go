package geom

// AxisValues extracts the axis-th coordinate of every point in the cloud.
func AxisValues(c Cloud, axis int) []float64 {
	out := make([]float64, len(c))
	for i, p := range c {
		out[i] = p.Coord(axis)
	}
	return out
}

// Histogram is a fixed-width binning of scalar values, used to reproduce
// the paper's Figure 6 coordinate histograms.
type Histogram struct {
	Min, Max float64 // value range covered by the bins
	Counts   []int   // Counts[i] covers [Min + i*w, Min + (i+1)*w)
}

// BinWidth returns the width of each bin.
func (h Histogram) BinWidth() float64 {
	if len(h.Counts) == 0 {
		return 0
	}
	return (h.Max - h.Min) / float64(len(h.Counts))
}

// Total returns the total number of binned values.
func (h Histogram) Total() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// NewHistogram bins values into bins equal-width buckets over [min, max].
// Values outside the range are clamped into the first/last bin so the
// histogram always accounts for every value.
func NewHistogram(values []float64, min, max float64, bins int) Histogram {
	h := Histogram{Min: min, Max: max, Counts: make([]int, bins)}
	if bins == 0 || max <= min {
		return h
	}
	w := (max - min) / float64(bins)
	for _, v := range values {
		i := int((v - min) / w)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
	}
	return h
}
