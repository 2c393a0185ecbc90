package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"benchpress/internal/trace"
)

func TestPercentilePlacesTiesInsideTheirBin(t *testing.T) {
	// 100 latencies truncated to 3 us, then 100 truncated to 4 us.
	var v []float64
	for i := 0; i < 100; i++ {
		v = append(v, 3)
	}
	for i := 0; i < 100; i++ {
		v = append(v, 4)
	}
	if got := percentile(v, 0.5, 1); math.Abs(got-3.995) > 1e-9 {
		t.Errorf("p50 = %v, want 3.995: the last of the 3 us ties, at the top of its bin", got)
	}
	if got := percentile(v, 0.25, 1); math.Abs(got-3.495) > 1e-9 {
		t.Errorf("p25 = %v, want 3.495", got)
	}
	if got := percentile(v, 0.5, 0); got != 3 {
		t.Errorf("untruncated p50 = %v, want the order statistic 3", got)
	}
	if got := percentile([]float64{1, 2, math.Inf(1)}, 1, 1); !math.IsInf(got, 1) {
		t.Errorf("a refused request at the percentile must stay +Inf, got %v", got)
	}
}

func TestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {100, 0.9, true}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.9}, {99, 0.5}, {19, 0}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// schedule builds accepted arrivals of a uniform schedule: arrival i is due
// at t0 + i*gap and starts lag(i) later; postponed arrivals are left out.
func schedule(n int, t0US, gapUS int64, lag func(i int) int64, postponed func(i int) bool) []sample {
	var out []sample
	for i := 0; i < n; i++ {
		if postponed(i) {
			continue
		}
		out = append(out, sample{startUS: t0US + int64(i)*gapUS + lag(i), latUS: 7})
	}
	return out
}

func TestDueLatenciesReconstructsTheSchedule(t *testing.T) {
	lag := func(i int) int64 {
		if i%10 == 0 {
			return 0 // on time: these pin t0
		}
		return int64(i % 7 * 3)
	}
	never := func(int) bool { return false }
	win := schedule(200, 5000, 25, lag, never)
	lat, lags := dueLatencies(win, 0, 25000, nil)
	for i := range win {
		if want := float64(lag(i)); lags[i] != want || lat[i] != want+7 {
			t.Fatalf("arrival %d: lag %v, latency %v; want lag %v, latency %v", i, lags[i], lat[i], want, want+7)
		}
	}

	// A window in the middle of the run: the index of its first arrival
	// does not matter to a linear schedule.
	lat2, lags2 := dueLatencies(win[50:], 50, 25000, nil)
	if lags2[0] != lags[50] || lat2[len(lat2)-1] != lat[len(lat)-1] {
		t.Errorf("mid-run window disagrees with the whole: lag %v vs %v", lags2[0], lags[50])
	}
}

func TestDueLatenciesAcrossAPostponedGap(t *testing.T) {
	lag := func(i int) int64 { return int64(i%5) * 2 }
	// Arrivals 40..49 found the queue full.
	gap := func(i int) bool { return i >= 40 && i < 50 }
	win := schedule(100, 1000, 50, lag, gap)
	// The poller saw ten postponed by the time 40 had been accepted.
	skips := []skip{{accepted: 40, postponed: 10}}
	lat, lags := dueLatencies(win, 0, 50000, skips)
	if len(lags) != 90 || len(lat) != 100 {
		t.Fatalf("got %d lags and %d latencies, want 90 accepted and 100 generated", len(lags), len(lat))
	}
	for k := range win {
		i := k
		if k >= 40 {
			i = k + 10
		}
		if want := float64(lag(i)); lags[k] != want {
			t.Fatalf("accepted %d (generated %d): lag %v, want %v", k, i, lags[k], want)
		}
	}
	for _, l := range lat[90:] {
		if !math.IsInf(l, 1) {
			t.Fatalf("a postponed arrival must miss any limit, got %v", l)
		}
	}
	// Without the skip record the arrivals after the gap look 10 gaps late.
	_, blind := dueLatencies(win, 0, 50000, nil)
	if blind[40] != lags[40]+500 {
		t.Errorf("blind lag %v, want %v", blind[40], lags[40]+500)
	}

	// A transaction that did not commit also misses any limit.
	win[3].status = statusAbort
	if lat, _ := dueLatencies(win, 0, 50000, skips); !math.IsInf(lat[3], 1) {
		t.Errorf("aborted attempt has latency %v, want +Inf", lat[3])
	}
}

func TestDeliveredRatio(t *testing.T) {
	// 1000 tps asked for; the rate POST lands at t = 1 s and takes effect
	// 100 ms later, before which the old 500 tps is delivered.
	var ss []sample
	for us := int64(0); us < 1_100_000; us += 2000 {
		ss = append(ss, sample{startUS: us, latUS: 10})
	}
	for us := int64(1_100_000); us < 3_000_000; us += 1000 {
		ss = append(ss, sample{startUS: us, latUS: 10})
	}
	ss[600].status = statusError // ends in the window, does not count
	got := deliveredRatio(ss, 1_000_000, 3_000_000, 1000)
	// 50 commits in the slow 100 ms, 1900 after, one of them failed.
	if want := float64(50+1900-1) / 2000; math.Abs(got-want) > 1e-12 {
		t.Errorf("ctl_step_ratio = %v, want %v: 100 ms of control delay at half rate costs 2.5%%", got, want)
	}
}

func TestSpanSelfTimeAndNesting(t *testing.T) {
	bodies := []bodySpan{{110, 150}, {400, 460}} // a retry: two bodies
	if got := selfNS(100, 500, bodies); got != 300 {
		t.Errorf("self time = %d, want 400 - 40 - 60 = 300", got)
	}
	ok := txnSpans{due: 40, start: 100, end: 500, bodies: bodies}
	if err := ok.check(); err != nil {
		t.Errorf("well-nested spans rejected: %v", err)
	}
	for name, bad := range map[string]txnSpans{
		"body before attempt": {due: 40, start: 120, end: 500, bodies: bodies},
		"body after attempt":  {due: 40, start: 100, end: 450, bodies: bodies},
		"bodies overlap":      {due: 40, start: 100, end: 500, bodies: []bodySpan{{110, 150}, {140, 200}}},
		"start before due":    {due: 140, start: 100, end: 500, bodies: bodies},
	} {
		if bad.check() == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Two workers, two connections: bodies nest only in their own worker's
	// attempts.
	w0 := []sample{{obsNS: 100}, {obsNS: 300}, {obsNS: 500}}
	c0 := []bodySpan{{10, 90}, {110, 200}, {210, 290}, {310, 490}} // attempt 2 retried once
	w1 := []sample{{obsNS: 150}, {obsNS: 600}}
	c1 := []bodySpan{{20, 140}, {160, 590}}
	as, fits := nest(w0, c0)
	if !fits || as[1].b0 != 1 || as[1].b1 != 3 {
		t.Fatalf("worker 0 on its own connection: fits %v, attempts %+v", fits, as)
	}
	if _, fits := nest(w0, c1); fits {
		t.Error("worker 0 accepted worker 1's connection")
	}
	if _, fits := nest(w1, c0); fits {
		t.Error("worker 1 accepted worker 0's connection")
	}
	tr := &tracer{}
	tr.slots.Store("a", &connSlot{c1})
	tr.slots.Store("b", &connSlot{c0})
	links, err := tr.link([][]sample{w0, w1})
	if err != nil || len(links[0].spans) != 4 || len(links[1].spans) != 2 {
		t.Errorf("link: %v, %+v", err, links)
	}
}

// core's workers run before its first phase is applied: an attempt that ends
// in that gap reports phase -1 and must land in the warm-up, not out of range.
func TestObserverBeforeFirstPhase(t *testing.T) {
	o := newObserver([]string{"A", "B"}, 4)
	o.ObserveAttempt(trace.Entry{Type: "B", Phase: -1, Status: "ok", Worker: 1}, nil)
	o.ObserveAttempt(trace.Entry{Type: "A", Phase: 2, Status: "abort", Worker: 1}, nil)
	got := o.perWorker[1]
	if len(got) != 2 || got[0].phase != kindWarm || got[0].typ != 1 || got[1].phase != kindPaced || got[1].status != statusAbort {
		t.Errorf("observed %+v", got)
	}
}

func TestMixDevMax(t *testing.T) {
	if got := mixDevMax([]int{50, 30, 20}, []float64{5, 3, 2}); got > 1e-12 {
		t.Errorf("exact mix deviates by %v", got)
	}
	if got := mixDevMax([]int{60, 20, 20}, []float64{5, 3, 2}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("deviation = %v, want 0.1", got)
	}
}

func readSpec(t *testing.T) spec {
	t.Helper()
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// BENCHMARK.json and the program must name the same workloads and metrics,
// with the same units: the driver reads one and runs the other.
func TestSpecMatchesProgram(t *testing.T) {
	sp := readSpec(t)
	if sp.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", sp.RunSeconds, defaultSeconds)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, sp.Workloads[i].Name, w.name)
		}
		if w.rateHi > 0 && w.rateLo != w.rateHi/2 {
			t.Errorf("%s: rate_lo %g is not half of rate_hi %g", w.name, w.rateLo, w.rateHi)
		}
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better = %q", d.name, got[i].Better)
			}
		}
	}
	same("end_to_end", sp.EndToEnd, endToEnd)
	same("per_layer", sp.PerLayer, perLayer)
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func writeReport(t *testing.T, dir, name string, vals map[string]float64) string {
	t.Helper()
	rep := report{}
	for _, w := range workloads {
		r := &result{Workload: w.name, Correct: true, Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			v, ok := vals[d.name]
			if !ok {
				v = 100
			}
			if v >= 0 {
				r.Metrics[d.name] = metric{v, d.unit}
			}
		}
		rep.Results = append(rep.Results, r)
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	sp := readSpec(t)
	bound := map[string]specMetric{}
	for _, m := range sp.EndToEnd {
		bound[m.Name] = m
	}
	dir := t.TempDir()
	specPath := filepath.Join("..", "BENCHMARK.json")
	base := writeReport(t, dir, "a.json", nil)
	if err := compareFiles(specPath, base, base); err != nil {
		t.Errorf("a report disagrees with itself: %v", err)
	}
	// Throughput down by just over its bound is a violation; up is not.
	sat := bound["sat_tps"]
	slower := writeReport(t, dir, "slow.json", map[string]float64{"sat_tps": 100 * (1 - sat.Bound - 0.01)})
	if err := compareFiles(specPath, base, slower); err == nil {
		t.Error("sat_tps below its bound passed")
	}
	if err := compareFiles(specPath, slower, base); err != nil {
		t.Errorf("an improvement failed: %v", err)
	}
	// Latency up by just over its bound is a violation.
	svc := bound["svc_p50_us.hi"]
	late := writeReport(t, dir, "late.json", map[string]float64{"svc_p50_us.hi": 100 * (1 + svc.Bound + 0.01)})
	if err := compareFiles(specPath, base, late); err == nil {
		t.Error("svc_p50_us.hi above its bound passed")
	}
	// A metric missing from either side fails.
	short := writeReport(t, dir, "short.json", map[string]float64{"deliv_ratio.hi": -1})
	if err := compareFiles(specPath, base, short); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("a missing metric passed: %v", err)
	}
	if err := compareFiles(specPath, short, base); err == nil {
		t.Error("a metric missing from the baseline passed")
	}
}

// The smoke run drives all four workloads through both kinds of run at tiny
// scales: every metric is produced and every correctness check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole harness for several seconds")
	}
	// The disk workload's directory and the span files go to os.TempDir().
	t.Setenv("TMPDIR", t.TempDir())
	out := filepath.Join(t.TempDir(), "smoke.json")
	if err := run([]string{"-smoke", "-out", out}); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := readJSON(out, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2*len(workloads) {
		t.Fatalf("%d results, want %d", len(rep.Results), 2*len(workloads))
	}
	for _, r := range rep.Results {
		defs := endToEnd
		if r.Trace == 1 {
			defs = perLayer
		}
		if !r.Correct || r.Attempted < 1 || len(r.Metrics) != len(defs) {
			t.Errorf("%s trace %d: correct %v, attempted %d, %d of %d metrics", r.Workload, r.Trace, r.Correct, r.Attempted, len(r.Metrics), len(defs))
		}
	}
}
