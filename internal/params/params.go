// Package params holds the query-parameter rules shared by every HTTP
// surface that answers /quantile, /cdf and /histogram: the standalone and
// worker server (httpapi) and the coordinator and aggregator (cluster).
// The rules are identical on all of them — whitespace is trimmed before
// parsing, non-finite floats are rejected by name, bounds failures are
// errors the handlers serve as structured 400s, and no list a caller sends
// may exceed a fixed length, so a request's CPU and response size are set
// by these limits rather than by the caller. (They drifted while each
// handler parsed inline: /cdf trimmed v on one surface but not the other.)
package params

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// maxPhis bounds the length of a quantile list, and maxBuckets the bucket
// count of a histogram; both cap the number of answers one query computes.
const (
	maxPhis    = 1000
	maxBuckets = 1000
)

// PhiList parses a comma-separated quantile list. The list may hold at
// most maxPhis entries; each is trimmed, must parse as a finite float, and
// must lie in (0, 1]. An empty raw string selects the median.
func PhiList(raw string) ([]float64, error) {
	if raw == "" {
		raw = "0.5"
	}
	if n := strings.Count(raw, ",") + 1; n > maxPhis {
		return nil, fmt.Errorf("bad phi: %d quantiles requested, at most %d", n, maxPhis)
	}
	var phis []float64
	for _, part := range strings.Split(raw, ",") {
		phi, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		// ParseFloat accepts "NaN", and NaN compares false against
		// everything, so the range check alone would wave it through into
		// the rank arithmetic; reject the whole non-finite class by name.
		if err != nil || math.IsNaN(phi) || math.IsInf(phi, 0) || phi <= 0 || phi > 1 {
			return nil, fmt.Errorf("bad phi %q", part)
		}
		phis = append(phis, phi)
	}
	return phis, nil
}

// FiniteFloat parses a required finite float parameter (e.g. /cdf's v=).
// NaN poisons the view's binary search (every comparison is false);
// infinities are formally orderable but signal a caller bug just the same.
func FiniteFloat(name, raw string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad %s %q", name, raw)
	}
	return v, nil
}

// BucketCount parses /histogram's buckets= with an explicit bound check:
// an empty raw selects the default of 10; anything unparsable, zero,
// negative, below 2, or above maxBuckets is an error.
func BucketCount(raw string) (int, error) {
	if raw == "" {
		return 10, nil
	}
	b, err := strconv.Atoi(strings.TrimSpace(raw))
	if err != nil {
		return 0, fmt.Errorf("bad buckets %q", raw)
	}
	if b <= 0 {
		return 0, fmt.Errorf("bad buckets %q: need a positive count", raw)
	}
	if b < 2 || b > maxBuckets {
		return 0, fmt.Errorf("bad buckets %q: need 2..%d", raw, maxBuckets)
	}
	return b, nil
}

// Window parses the window= duration parameter strictly: a trimmed,
// positive Go duration ("30s", "5m"). Range-checking against a store's
// configured span belongs to the keyed layer (keyed.ErrWindowRange).
func Window(raw string) (time.Duration, error) {
	d, err := time.ParseDuration(strings.TrimSpace(raw))
	if err != nil {
		return 0, fmt.Errorf("bad window %q: want a Go duration like 30s or 5m", raw)
	}
	if d <= 0 {
		return 0, fmt.Errorf("bad window %q: need a positive duration", raw)
	}
	return d, nil
}
