package stats

import "math"

// Missing-value support (Section 4.2 names "handling of missing values"
// as an extension): queries may carry NaN coordinates, which are treated
// as unobserved dimensions. For diagonal Gaussians the marginal density
// over the observed dimensions is simply the product over those
// dimensions, so evaluation restricted to an index set is exact
// marginalisation.

// ObservedDimsInto returns the indices of the non-NaN coordinates of x —
// nil when every coordinate is observed (the common fast path), empty but
// non-nil when none is — built in a caller-provided scratch buffer, for
// allocation-free reuse across queries (e.g. by pooled queries), together
// with the (possibly grown) buffer to keep for the next call.
func ObservedDimsInto(x []float64, buf []int) (obs, scratch []int) {
	buf = buf[:0]
	missing := false
	for i, v := range x {
		if math.IsNaN(v) {
			missing = true
		} else {
			buf = append(buf, i)
		}
	}
	if !missing {
		return nil, buf
	}
	if buf == nil {
		// All coordinates missing with a nil scratch: the observed set is
		// empty but must be non-nil (nil means "all observed").
		buf = make([]int, 0)
	}
	return buf, buf
}

// LogPDFObs returns the log marginal density of x under g restricted to
// the observed dimensions obs. A nil obs means all dimensions (equivalent
// to LogPDF). An empty obs yields 0 (the empty product: every model
// explains a fully unobserved point equally).
func (g Gaussian) LogPDFObs(x []float64, obs []int) float64 {
	if obs == nil {
		return g.LogPDF(x)
	}
	var quad, logDet float64
	for _, i := range obs {
		v := g.Var[i]
		if v < VarianceFloor {
			v = VarianceFloor
		}
		d := x[i] - g.Mean[i]
		quad += d * d / v
		logDet += math.Log(v)
	}
	return -0.5 * (float64(len(obs))*log2Pi + logDet + quad)
}
