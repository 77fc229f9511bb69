package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark will report it: p90 needs 100 samples, p98 needs 500.
const minBeyond = 10

// tailPercentiles are the percentiles a timing may print beyond its
// median, in ascending order.
var tailPercentiles = []float64{75, 90, 95, 98, 99}

// supports reports whether n samples leave at least minBeyond of them
// beyond percentile p.
func supports(n int, p float64) bool {
	return int(math.Floor(float64(n)*(100-p)/100+1e-9)) >= minBeyond
}

// median returns the middle of vals; an empty sample is an error.
func median(vals []float64) (float64, error) {
	if len(vals) == 0 {
		return 0, fmt.Errorf("median of an empty sample")
	}
	return interpolate(sorted(vals), 50), nil
}

// percentile returns percentile p of vals, or an error when fewer than
// minBeyond samples lie beyond it: a tail the sample cannot support is not
// a number.
func percentile(vals []float64, p float64) (float64, error) {
	if !supports(len(vals), p) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, sample has n=%d", p, minBeyond, len(vals))
	}
	return interpolate(sorted(vals), p), nil
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// interpolate reads percentile p off an ascending sample, linearly between
// the two nearest ranks.
func interpolate(s []float64, p float64) float64 {
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// summarize renders a timing the only way the benchmark prints one: the
// median, the highest percentile the sample supports, and n.
func summarize(name, unit string, vals []float64) string {
	if len(vals) == 0 {
		return fmt.Sprintf("%s: no samples", name)
	}
	s := sorted(vals)
	var b strings.Builder
	fmt.Fprintf(&b, "%s: p50=%.3f %s", name, interpolate(s, 50), unit)
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		if p := tailPercentiles[i]; supports(len(s), p) {
			fmt.Fprintf(&b, " p%g=%.3f %s", p, interpolate(s, p), unit)
			break
		}
	}
	fmt.Fprintf(&b, " n=%d", len(vals))
	return b.String()
}

// quartileSpread is the distance between the first and third quartile of
// vals as a share of their median — the run-to-run spread the benchmark's
// bounds are judged against. It follows Python's statistics.quantiles
// (n=4, exclusive method), which the driver uses.
func quartileSpread(vals []float64) (float64, error) {
	if len(vals) < 2 {
		return 0, fmt.Errorf("spread needs at least 2 values, have %d", len(vals))
	}
	s := sorted(vals)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	med := interpolate(s, 50)
	if med == 0 {
		return 0, fmt.Errorf("spread of a sample with median 0")
	}
	return (q(3) - q(1)) / math.Abs(med), nil
}
