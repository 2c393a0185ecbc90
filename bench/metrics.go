package main

import (
	"math"
	"sort"
)

// sample is one observed transaction attempt: the harness's own copy of the
// trace.Entry core hands to the AttemptObserver. Times are microseconds since
// the Manager's run start, truncated by core to whole microseconds.
type sample struct {
	startUS int64
	latUS   int64
	// obsNS is the harness clock (ns since the tracer's epoch) when the
	// observer was called; recorded on traced runs only.
	obsNS  int64
	typ    uint8
	status uint8
	phase  uint8
}

const (
	statusOK uint8 = iota
	statusAbort
	statusError
)

func (s sample) endUS() int64 { return s.startUS + s.latUS }

// supported reports whether a percentile has at least ten samples beyond it,
// the rule for the highest percentile a sample may report.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10-1e-9 // 1-0.9 is a hair under 0.1
}

// highestSupported returns the highest of p99.9, p99, p90 and p50 that n
// samples support, or 0 when even the median has fewer than ten beyond it.
func highestSupported(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.9, 0.5} {
		if supported(n, p) {
			return p
		}
	}
	return 0
}

// percentile returns the exact order statistic of rank ceil(p*n) from sorted
// values. Values truncated to whole units (core's microsecond latencies) tie
// in long runs; the statistic is then placed inside its one-unit bin by its
// position among the ties, so a distribution concentrated on a few integers
// still moves when it shifts. unit is the truncation step (0 for values that
// are not truncated).
func percentile(sorted []float64, p, unit float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	v := sorted[k]
	if unit == 0 || math.IsInf(v, 1) {
		return v
	}
	lo := sort.SearchFloat64s(sorted, v)
	hi := lo + sort.Search(n-lo, func(i int) bool { return sorted[lo+i] > v })
	return v + unit*(float64(k-lo)+0.5)/float64(hi-lo)
}

// skip says that by the time `accepted` arrivals had been enqueued, core had
// postponed `postponed` arrivals in total (both cumulative since run start).
type skip struct {
	accepted  int64
	postponed int64
}

// postponedBefore returns the cumulative postponed count known when the a-th
// accepted arrival (0-based) was enqueued.
func postponedBefore(skips []skip, a int64) int64 {
	i := sort.Search(len(skips), func(i int) bool { return skips[i].accepted > a })
	if i == 0 {
		return 0
	}
	return skips[i-1].postponed
}

// dueLatencies applies the open-loop rule "time each request from when it
// was due" from outside core. win holds consecutive accepted arrivals sorted
// by start; the first is the firstAccepted-th accepted arrival of the run.
// With uniform arrivals every generated arrival i is due at t0 + i*gap, and
// the a-th accepted one is generated arrival a + postponedBefore(a). No
// arrival starts before it is due, so t0 is the largest value that keeps
// every lag non-negative. The result is lag + service latency per accepted
// arrival, in microseconds, with +Inf for one that did not commit and one
// more +Inf per arrival postponed inside the window: a failed or refused
// request misses any limit. lags are start - due.
func dueLatencies(win []sample, firstAccepted, gapNS int64, skips []skip) (lat, lags []float64) {
	if len(win) == 0 {
		return nil, nil
	}
	gapUS := float64(gapNS) / 1000
	base := firstAccepted + postponedBefore(skips, firstAccepted)
	idx := make([]float64, len(win))
	t0 := math.Inf(1)
	for k, s := range win {
		a := firstAccepted + int64(k)
		idx[k] = float64(a + postponedBefore(skips, a) - base)
		if c := float64(s.startUS) - idx[k]*gapUS; c < t0 {
			t0 = c
		}
	}
	lat = make([]float64, 0, len(win))
	lags = make([]float64, len(win))
	for k, s := range win {
		lags[k] = float64(s.startUS) - (t0 + idx[k]*gapUS)
		if s.status != statusOK {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, lags[k]+float64(s.latUS))
	}
	last := firstAccepted + int64(len(win)) - 1
	for n := postponedBefore(skips, last) - postponedBefore(skips, firstAccepted); n > 0; n-- {
		lat = append(lat, math.Inf(1))
	}
	return lat, lags
}

// committedIn counts committed samples whose end falls in [fromUS, toUS).
func committedIn(ss []sample, fromUS, toUS int64) int {
	n := 0
	for _, s := range ss {
		if e := s.endUS(); s.status == statusOK && e >= fromUS && e < toUS {
			n++
		}
	}
	return n
}

// deliveredRatio is committed work in a window over what the target rate
// asks for in that window: ctl_step_ratio over the seconds after the rate
// POST, deliv_ratio.hi over the steady rest of the phase.
func deliveredRatio(ss []sample, fromUS, toUS int64, rate float64) float64 {
	return float64(committedIn(ss, fromUS, toUS)) / (rate * float64(toUS-fromUS) / 1e6)
}

// bodyNS is the time a transaction's body spans cover.
func bodyNS(bs []bodySpan) int64 {
	var d int64
	for _, b := range bs {
		d += b.t1 - b.t0
	}
	return d
}

// selfNS is a span's self time: its duration minus what its children cover.
func selfNS(startNS, endNS int64, children []bodySpan) int64 {
	return endNS - startNS - bodyNS(children)
}

// committed counts the samples that committed.
func committed(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.status == statusOK {
			n++
		}
	}
	return n
}

// mixDevMax is the largest absolute gap between the delivered share of each
// transaction type and its share of the target mixture.
func mixDevMax(counts []int, mix []float64) float64 {
	var n int
	var total float64
	for i := range mix {
		n += counts[i]
		total += mix[i]
	}
	if n == 0 || total == 0 {
		return 0
	}
	var worst float64
	for i := range mix {
		if d := math.Abs(float64(counts[i])/float64(n) - mix[i]/total); d > worst {
			worst = d
		}
	}
	return worst
}

// slicedMedian cuts v, which is in arrival order, into sixteen equal runs
// (fewer when a run would not hold the twenty samples a median needs) and
// returns the median of the runs' medians. A garbage collection slows a
// stretch of arrivals, and how much of a window such stretches cover varies
// from run to run; the median run's median does not move with it.
func slicedMedian(v []float64) float64 {
	k := 16
	if len(v) < 20*k {
		k = len(v) / 20
	}
	if k < 1 {
		k = 1
	}
	meds := make([]float64, k)
	for i := range meds {
		meds[i] = median(v[i*len(v)/k : (i+1)*len(v)/k])
	}
	return median(meds)
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5, 0) }
