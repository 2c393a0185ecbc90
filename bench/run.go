package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"benchpress/internal/core"
)

// config is what the command line decides about a run.
type config struct {
	seed    int64
	seconds float64
	smoke   bool
}

func (c config) part(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// untracedPlan spends the measured seconds as 30% sat, 30% lo and 40% hi,
// after a warm-up of a tenth as much again.
func (c config) untracedPlan() plan {
	return plan{warm: c.part(0.1), sat: c.part(0.3), lo: c.part(0.3), hi: c.part(0.4)}
}

// tracedPlans: a plain Manager measures sat without the decorator, then a
// decorated one measures sat again (the difference is the tracing overhead)
// and hi at rateHi, with a tail for the control-plane probes.
func (c config) tracedPlans() (plain, traced plan) {
	plain = plan{warm: c.part(0.1), sat: c.part(0.15)}
	traced = plan{warm: c.part(0.05), sat: c.part(0.15), hi: c.part(0.4), tail: c.part(0.06)}
	return plain, traced
}

// rates returns the workload with its frozen rates, or, in smoke mode, a
// quarter of them and a single set-up: there the point is the plumbing, and
// the host may be anything.
func (c config) rates(w workload) workload {
	if c.smoke {
		w.rateLo, w.rateHi, w.setupReps = w.rateLo/4, w.rateHi/4, 1
	}
	return w
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run, traced or not.
type result struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Noisy     bool              `json:"noisy"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are the ungated facts printed beside the metrics: sample
	// counts, the ok.hi verdict, sizes, the span file.
	Notes []string `json:"notes"`
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fill turns computed values into the result's metrics, insisting that the
// run produced exactly the metrics the definition list names.
func (r *result) fill(defs []metricDef, vals map[string]float64) error {
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.name)
		}
		if math.IsNaN(v) {
			return fmt.Errorf("%s: metric %s is not a number", r.Workload, d.name)
		}
		if math.IsInf(v, 1) {
			// A percentile that landed on a refused request: report the
			// largest number JSON carries.
			v = math.MaxFloat64
		}
		r.Metrics[d.name] = metric{v, d.unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := r.Metrics[name]; !ok {
				return fmt.Errorf("%s: metric %s is measured but not defined", r.Workload, name)
			}
		}
	}
	return nil
}

var spinSink uint64

// calibrate times a fixed single-goroutine spin. It is the noise guard: the
// same spin before and after a workload should take the same time, and when
// it does not the host changed under the run.
func calibrate() float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		x := uint64(r + 1)
		for i := 0; i < 10_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink += x
		runs = append(runs, float64(time.Since(start).Nanoseconds()))
	}
	return median(runs)
}

// noisy reports whether two calibrations differ by more than 10%.
func noisy(before, after float64) bool {
	return math.Abs(after-before) > 0.10*math.Min(before, after)
}

// setups runs the timed set-up step reps times and returns the last target
// with the median time. The heap is collected, untimed, after every
// repetition: the next one does not pay for its predecessor's garbage, and
// the run that follows starts a full GC period away from its first cycle
// instead of wherever the loader left the pacer. TPC-C's 1.2 GB heap takes
// two seconds to mark, on one of two CPUs; a cycle that lands in some runs
// and not in others would be most of the spread between them.
func setups(w workload, c config, reps int) (*target, float64, error) {
	var t *target
	var took []float64
	for r := 0; r < reps; r++ {
		if t != nil {
			t.close()
			t = nil
			runtime.GC()
		}
		var d time.Duration
		var err error
		if t, d, err = w.setup(c.seed, c.smoke); err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took = append(took, d.Seconds())
	}
	runtime.GC()
	return t, median(took), nil
}

func typeNames(b core.Benchmark) []string {
	procs := b.Procedures()
	names := make([]string, len(procs))
	for i, p := range procs {
		names[i] = p.Name
	}
	return names
}

// sampleCap sizes an observer's per-worker slices for pl: room for the
// paced phases at rateHi and for closed-loop phases at twice that, split
// over the workers with half as much again to spare.
func sampleCap(w workload, pl plan) int {
	secs := (pl.lo + pl.hi + pl.tail).Seconds() + 2*(pl.warm+pl.sat).Seconds()
	return int(1.5 * w.rateHi * secs / terminals)
}

// tally adds the committed transactions of d, by type name, to counts.
func tally(d *runData, counts map[string]int) {
	for _, ss := range d.byKind {
		for _, s := range ss {
			if s.status == statusOK {
				counts[d.types[s.typ]]++
			}
		}
	}
}

// outcome fills the attempted and failed counts over the measured phases:
// every attempt observed after warm-up plus every arrival refused, against
// those that did not commit.
func (r *result) outcome(ds ...*runData) {
	for _, d := range ds {
		for _, k := range []uint8{kindSat, kindPaced} {
			for _, s := range d.byKind[k] {
				r.Attempted++
				if s.status != statusOK {
					r.Failed++
				}
			}
		}
		r.Attempted += d.postponed
		r.Failed += d.postponed
	}
}

func latencies(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.status == statusOK {
			out = append(out, float64(s.latUS))
		}
	}
	sort.Float64s(out)
	return out
}

// endToEnd computes the end-to-end metrics one untraced Manager run supports
// and the notes printed beside them.
func (d *runData) endToEnd(r *result, vals map[string]float64) {
	w, pl := d.w, d.plan
	paced := d.byKind[kindPaced]
	skips := d.skips()

	sat := committed(d.byKind[kindSat])
	vals["sat_tps"] = float64(sat) / pl.sat.Seconds()

	from, to := d.steady()
	hiWin, first := window(paced, from, to)
	svc := latencies(hiWin)
	vals["svc_p50_us.hi"] = percentile(svc, 0.5, 1)
	hiLat, _ := dueLatencies(hiWin, first, gapNS(w.rateHi), skips)
	vals["lat_p50_us.hi"] = slicedMedian(hiLat)
	vals["deliv_ratio.hi"] = deliveredRatio(paced, from, to, w.rateHi)
	vals["ctl_step_ratio"] = deliveredRatio(paced, d.postUS, d.postUS+us(pl.ctlWindow()), w.rateHi)

	// The tails are reported but not gated: they do not repeat in this
	// sandbox (README, "Departures").
	// The first quarter of lo is left out: a worker may still be inside a
	// long closed-loop transaction when the first arrivals come due.
	loWin, first := window(paced, us(pl.warm+pl.sat+pl.lo/4), d.postUS)
	loLat, _ := dueLatencies(loWin, first, gapNS(w.rateLo), skips)
	sort.Float64s(hiLat)
	sort.Float64s(loLat)
	latP99 := percentile(hiLat, 0.99, 0)
	r.note("ungated tails: svc_p99_us.hi %.1f us, lat_p99_us.hi %.1f us, lat_p99_us.lo %.1f us",
		percentile(svc, 0.99, 1), latP99, percentile(loLat, 0.99, 0))

	r.outcome(d)
	vals["commit_frac"] = 1 - float64(r.Failed)/float64(r.Attempted)

	depthMid, depthEnd := d.depthAround((from+to)/2), d.depthAround(to)
	growing := depthEnd > depthMid+w.rateHi/100
	ok := latP99 <= w.p99LimitUS && vals["deliv_ratio.hi"] >= 0.99 && !growing
	r.note("ok.hi = %v (lat_p99_us.hi <= p99_limit_us %g, deliv_ratio.hi >= 0.99, queue depth %.1f mid-phase, %.1f at the end)",
		ok, w.p99LimitUS, depthMid, depthEnd)
	r.note("n: sat %d, hi %d (supports p%g), lo %d (supports p%g): ten samples lie beyond",
		sat, len(hiLat), 100*highestSupported(len(hiLat)), len(loLat), 100*highestSupported(len(loLat)))
	r.note("rates: lo %g tps, hi %g tps; requested %d, postponed %d, retries %d, aborted %d",
		w.rateLo, w.rateHi, d.requested, d.postponed, d.retries, d.aborted)
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(w workload, c config) (*result, error) {
	w = c.rates(w)
	r := &result{Workload: w.name}
	calib := calibrate()
	t, setupS, err := setups(w, c, w.setupReps)
	if err != nil {
		return nil, err
	}
	defer t.close()
	pl := c.untracedPlan()
	d, err := runManager(t, w, t.bench, pl, newObserver(typeNames(t.bench), sampleCap(w, pl)), runOpts{seed: c.seed})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	vals := map[string]float64{"setup_s": setupS}
	d.endToEnd(r, vals)
	counts := map[string]int{}
	tally(d, counts)
	errors := d.errors
	// Release the samples before weighing the engine.
	d = nil
	eng := t.db.Engine()
	eng.Vacuum()
	// Twice: the first collection only moves sync.Pool contents (the
	// executor's scratch) to the victim cache.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vals["mem_bytes_per_row"] = float64(ms.HeapAlloc) / float64(eng.RowCount())
	r.note("engine: %d rows, %.1f MB live Go heap", eng.RowCount(), float64(ms.HeapAlloc)/1e6)

	if err := check(w, t, errors, counts); err != nil {
		return nil, err
	}
	r.Correct = true
	calibAfter := calibrate()
	r.Noisy = noisy(calib, calibAfter)
	r.note("host.calib_ns %.0f before, %.0f after; noisy: %v", calib, calibAfter, r.Noisy)
	return r, r.fill(endToEnd, vals)
}

// runTraced measures the per-layer metrics of one workload: a plain and a
// decorated Manager on the same engine, then the micro-probes.
func runTraced(w workload, c config) (*result, error) {
	w = c.rates(w)
	r := &result{Workload: w.name, Trace: 1}
	vals := map[string]float64{"host.calib_ns.before": calibrate()}
	t, setupS, err := setups(w, c, 1)
	if err != nil {
		return nil, err
	}
	defer t.close()
	eng := t.db.Engine()
	vals["load.rows_per_s"] = float64(eng.RowCount()) / setupS
	loadedRows := eng.RowCount()
	names := typeNames(t.bench)

	plainPlan, tracedPlan := c.tracedPlans()
	plain, err := runManager(t, w, t.bench, plainPlan, newObserver(names, sampleCap(w, plainPlan)), runOpts{seed: c.seed, memStats: true})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	satPlain := committed(plain.byKind[kindSat])
	m0, m1 := &plain.memSat[0], &plain.memSat[1]
	vals["go.allocs_per_txn"] = float64(m1.Mallocs-m0.Mallocs) / float64(satPlain)
	vals["go.alloc_bytes_per_txn"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(satPlain)
	vals["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	vals["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	tr := newTracer(t.bench)
	obs := newObserver(names, sampleCap(w, tracedPlan))
	obs.epoch = tr.epoch
	walBefore, poolBefore := walCounters(t), poolCounters(t)
	d, err := runManager(t, w, tr, tracedPlan, obs, runOpts{seed: c.seed})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	walAfter, poolAfter := walCounters(t), poolCounters(t)
	satTraced := committed(d.byKind[kindSat])
	vals["trace.overhead_pct"] = 100 * (1 - (float64(satTraced)/tracedPlan.sat.Seconds())/(float64(satPlain)/plainPlan.sat.Seconds()))

	if err := tracedLayers(d, tr, w, vals, r); err != nil {
		return nil, err
	}

	attempts := 0
	for _, ws := range d.perWorker {
		attempts += len(ws)
	}
	vals["core.requested"] = float64(d.requested)
	vals["core.postponed"] = float64(d.postponed)
	vals["core.queue_depth_max"] = float64(d.depthMax())
	r.outcome(plain, d)
	vals["core.fail_frac"] = float64(r.Failed) / float64(r.Attempted)
	vals["txn.retries"] = float64(d.retries)
	vals["txn.aborts"] = float64(d.aborted)
	vals["txn.retry_ratio"] = float64(d.retries) / float64(attempts)
	for name, v := range d.api {
		vals[name] = median(v)
	}

	vals["wal.records"] = walAfter[0] - walBefore[0]
	vals["wal.flushes"] = walAfter[1] - walBefore[1]
	vals["wal.bytes"] = walAfter[2] - walBefore[2]
	vals["wal.records_per_flush"] = ratio(vals["wal.records"], vals["wal.flushes"])
	vals["wal.bytes_per_commit"] = ratio(vals["wal.bytes"], float64(d.committed))
	vals["heap.hits"] = poolAfter[0] - poolBefore[0]
	vals["heap.misses"] = poolAfter[1] - poolBefore[1]
	vals["heap.evictions"] = poolAfter[2] - poolBefore[2]
	vals["heap.flushes"] = poolAfter[3] - poolBefore[3]
	vals["heap.hit_pct"] = 100 * ratio(vals["heap.hits"], vals["heap.hits"]+vals["heap.misses"])

	counts := map[string]int{}
	tally(plain, counts)
	tally(d, counts)
	heapMB, walMB := fileMB(t.dir, "heap.db"), fileMB(t.dir, "wal.log")
	vals["disk.heap_mb"], vals["disk.wal_mb"] = heapMB, walMB
	// User bytes are the generator's expectation: a row is a key and ten
	// fields of 50 to 100 characters, an update rewrites one field.
	const rowBytes, fieldBytes = 8 + 10*75, 75
	userMB := (float64(loadedRows+counts["Insert"])*rowBytes + float64(counts["Update"]+counts["ReadModifyWrite"])*fieldBytes) / 1e6
	vals["disk.store_amp"] = (heapMB + walMB) / userMB
	if w.poolPages > 0 {
		r.note("disk: %d rows loaded = %.1f MB of pages against a pool of %d frames = %.2f MB",
			loadedRows, float64(loadedRows)*rowBytes/1e6, w.poolPages, float64(w.poolPages)*4096/1e6)
	}

	if err := check(w, t, plain.errors+d.errors, counts); err != nil {
		return nil, err
	}
	r.Correct = true

	p := probes{v: vals, calls: probeCalls, budget: probeBudget}
	if c.smoke {
		p.calls, p.budget = probeCalls/20, probeBudget/10
	}
	if err := p.parse(t, c.seed); err != nil {
		return nil, err
	}
	if err := p.standalone(w); err != nil {
		return nil, err
	}
	if err := p.engine(w, c.seed); err != nil {
		return nil, err
	}
	vals["host.calib_ns.after"] = calibrate()
	r.Noisy = noisy(vals["host.calib_ns.before"], vals["host.calib_ns.after"])
	r.note("noisy: %v", r.Noisy)
	return r, r.fill(perLayer, vals)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedLayers links the decorated run's spans, checks that they reconcile,
// writes the span file and fills the span-derived metrics over the steady hi
// window.
func tracedLayers(d *runData, tr *tracer, w workload, vals map[string]float64, r *result) error {
	links, err := tr.link(d.perWorker)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	epoch := runEpochNS(d.perWorker)
	// The paced attempts of all workers in start order, each still holding
	// its connection's spans.
	type pacedAttempt struct {
		attempt
		spans []bodySpan
	}
	var all []pacedAttempt
	for _, l := range links {
		for _, a := range l.attempts {
			if a.phase >= kindPaced {
				all = append(all, pacedAttempt{a, l.spans})
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].startUS < all[j].startUS })
	from, to := d.steady()
	lo := sort.Search(len(all), func(i int) bool { return all[i].startUS >= from })
	hi := sort.Search(len(all), func(i int) bool { return all[i].startUS >= to })
	win := make([]sample, hi-lo)
	for i := range win {
		win[i] = all[lo+i].sample
	}
	_, lags := dueLatencies(win, int64(lo), gapNS(w.rateHi), d.skips())

	txns := make([]txnSpans, len(win))
	var txnUS, selfUS, bodyUS, attemptUS []float64
	counts := make([]int, len(d.types))
	for i := range win {
		a := all[lo+i]
		x := spansOf(a.attempt, a.spans, epoch, lags[i])
		if err := x.check(); err != nil {
			return fmt.Errorf("%s: transaction %d: %w", w.name, i, err)
		}
		txns[i] = x
		txnUS = append(txnUS, float64(x.end-x.due)/1e3)
		selfUS = append(selfUS, float64(selfNS(x.start, x.end, x.bodies))/1e3)
		bodyUS = append(bodyUS, float64(bodyNS(x.bodies))/1e3)
		attemptUS = append(attemptUS, float64(x.end-x.start)/1e3)
		counts[a.typ]++
	}
	path, err := writeSpans(w.name, txns)
	if err != nil {
		return fmt.Errorf("%s: write spans: %w", w.name, err)
	}
	r.note("spans: %d transactions reconcile (queue_wait + attempt = txn, proc_body + attempt self = attempt); first %d in %s",
		len(txns), spanFileCap, path)

	vals["trace.txn_us.p50"] = slicedMedian(txnUS)
	sort.Float64s(lags)
	sort.Float64s(txnUS)
	sort.Float64s(attemptUS)
	sort.Float64s(selfUS)
	sort.Float64s(bodyUS)
	vals["core.sched_lag_us.p50"] = percentile(lags, 0.5, 0)
	vals["core.sched_lag_us.p99"] = percentile(lags, 0.99, 0)
	vals["core.attempt_self_us.p50"] = percentile(selfUS, 0.5, 0)
	vals["core.attempt_self_us.p99"] = percentile(selfUS, 0.99, 0)
	vals["bench.proc_body_us.p50"] = percentile(bodyUS, 0.5, 0)
	vals["bench.proc_body_us.p99"] = percentile(bodyUS, 0.99, 0)
	vals["trace.txn_us.p99"] = percentile(txnUS, 0.99, 0)
	vals["core.attempt_us.p50"] = percentile(attemptUS, 0.5, 0)
	vals["core.attempt_us.p99"] = percentile(attemptUS, 0.99, 0)
	vals["core.mix_dev_max"] = mixDevMax(counts, d.mix)
	return nil
}

// walCounters reads the engine log's public counters: records, flushes,
// bytes.
func walCounters(t *target) [3]float64 {
	l := t.db.Engine().WAL()
	if l == nil {
		return [3]float64{}
	}
	return [3]float64{float64(l.Records()), float64(l.Flushes()), float64(l.Bytes())}
}

// poolCounters reads the buffer pool's counters (all zero for a RAM engine):
// hits, misses, evictions, flushes.
func poolCounters(t *target) [4]float64 {
	s, _ := t.db.Engine().DiskPoolStats()
	return [4]float64{float64(s.Hits), float64(s.Misses), float64(s.Evictions), float64(s.Flushes)}
}

// fileMB is the size of a file of a disk target, 0 for a RAM one.
func fileMB(dir, name string) float64 {
	if dir == "" {
		return 0
	}
	st, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0
	}
	return float64(st.Size()) / 1e6
}
