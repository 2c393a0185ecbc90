package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"benchpress/internal/api"
	"benchpress/internal/core"
	"benchpress/internal/trace"
)

// plan is the run shape of one Manager: warm (closed loop, discarded), sat
// (closed loop, Rate 0), then one paced phase that starts at rateLo and is
// switched to rateHi over REST after lo. With lo == 0 the paced phase runs at
// rateHi throughout. tail keeps the load running after the measured window
// so the control-plane probes run against a busy Manager without touching
// the numbers.
type plan struct {
	warm, sat, lo, hi, tail time.Duration
}

// ctlWindow is the stretch after the rate POST judged by ctl_step_ratio and
// left out of the steady hi window.
func (p plan) ctlWindow() time.Duration {
	if w := p.hi / 2; w < 2*time.Second {
		return w
	}
	return 2 * time.Second
}

// guard keeps the steady window clear of the Manager's own phase end, which
// drifts from the harness clock by timer slop.
const guard = 20 * time.Millisecond

const (
	kindWarm uint8 = iota
	kindSat
	kindPaced
)

// observer is the harness's own latency clock: core calls it once per
// attempt and it appends to the calling worker's slice, nothing else.
type observer struct {
	types     map[string]uint8
	perWorker [][]sample
	// epoch, when set, makes the observer stamp each attempt with the
	// harness clock (traced runs; the stamp is the attempt span's end).
	epoch time.Time
}

func newObserver(types []string, perWorkerCap int) *observer {
	o := &observer{types: make(map[string]uint8, len(types)), perWorker: make([][]sample, terminals)}
	for i, t := range types {
		o.types[t] = uint8(i)
	}
	for w := range o.perWorker {
		o.perWorker[w] = make([]sample, 0, perWorkerCap)
	}
	return o
}

// ObserveAttempt implements core.AttemptObserver. Each worker touches only
// its own slice, so no lock is needed.
func (o *observer) ObserveAttempt(e trace.Entry, _ []any) {
	s := sample{startUS: e.StartUS, latUS: e.LatencyUS, typ: o.types[e.Type]}
	// core starts its workers before it applies the first phase; an attempt
	// that ends in that gap carries phase -1 and belongs to the warm-up.
	if e.Phase > 0 {
		s.phase = uint8(e.Phase)
	}
	switch e.Status {
	case "abort":
		s.status = statusAbort
	case "error":
		s.status = statusError
	}
	if !o.epoch.IsZero() {
		s.obsNS = int64(time.Since(o.epoch))
	}
	o.perWorker[e.Worker] = append(o.perWorker[e.Worker], s)
}

// poll is one reading of the Manager's public counters.
type poll struct {
	tUS       int64
	requested int64
	postponed int64
	depth     int
}

// runData is everything one Manager run leaves behind for the arithmetic.
type runData struct {
	w     workload
	plan  plan
	types []string
	mix   []float64
	// byKind holds the samples of each phase kind merged over workers and
	// sorted by start; perWorker keeps observation order for span linking.
	byKind    [3][]sample
	perWorker [][]sample
	polls     []poll
	// postUS is when the rate POST was sent (run clock); with lo == 0 it is
	// the nominal start of the paced phase.
	postUS int64
	// Collector totals at the end of the run.
	committed, aborted, errors, retries int64
	requested, postponed                int64
	// memSat brackets the sat phase (only when asked for).
	memSat [2]runtime.MemStats
	// api holds the control-plane probe timings taken in the tail.
	api map[string][]float64
}

type runOpts struct {
	memStats bool
	seed     int64
}

func us(d time.Duration) int64 { return d.Microseconds() }

// runManager drives one fresh Manager over t through pl and returns the raw
// observations. bench is the benchmark the Manager sees (the plain one, or
// the tracer's decorated copy).
func runManager(t *target, w workload, bench core.Benchmark, pl plan, obs *observer, o runOpts) (*runData, error) {
	mix := w.mix
	if mix == nil {
		mix = bench.DefaultMix()
	}
	phases := []core.Phase{
		{Duration: pl.warm, Mix: mix},
		{Duration: pl.sat, Mix: mix},
	}
	paced := pl.lo + pl.hi + pl.tail
	if paced > 0 {
		rate := w.rateHi
		if pl.lo > 0 {
			rate = w.rateLo
		}
		phases = append(phases, core.Phase{Duration: paced, Rate: rate, Mix: mix})
	}
	m := core.NewManager(bench, t.db, phases, core.Options{
		Terminals: terminals, MaxRetries: maxRetries, Seed: o.seed, Name: w.name,
		// One second of the highest rate, which the phase list alone does
		// not show: rateHi arrives over REST.
		QueueCapacity: int(w.rateHi),
	})
	// Parameter sampling is effectively off: only timing and outcome.
	m.SetCapture(obs, 1<<40)
	srv := httptest.NewServer(api.NewServer(nil, m).Handler())
	defer srv.Close()
	ctl := &control{client: srv.Client(), base: srv.URL, name: w.name}

	d := &runData{w: w, plan: pl, mix: mix, types: m.Collector().Types(), api: map[string][]float64{}}
	started := make(chan time.Time, 1)
	errc := make(chan error, 1)
	go func() {
		started <- time.Now()
		errc <- m.Run(context.Background())
	}()
	t0 := <-started

	// The poller reads the Manager's public counters every 10 ms.
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				d.polls = append(d.polls, poll{us(time.Since(t0)), m.Requested(), m.Postponed(), m.QueueDepth()})
			case <-stopPoll:
				return
			}
		}
	}()

	var ctlErr error
	at := pl.warm
	if o.memStats {
		time.Sleep(time.Until(t0.Add(at)))
		runtime.ReadMemStats(&d.memSat[0])
	}
	at += pl.sat
	if o.memStats {
		time.Sleep(time.Until(t0.Add(at)))
		runtime.ReadMemStats(&d.memSat[1])
	}
	d.postUS = us(at)
	if pl.lo > 0 {
		at += pl.lo
		time.Sleep(time.Until(t0.Add(at)))
		d.postUS = us(time.Since(t0))
		_, ctlErr = ctl.postRate(w.rateHi)
	}
	if pl.tail > 0 && ctlErr == nil {
		time.Sleep(time.Until(t0.Add(at + pl.hi)))
		ctlErr = ctl.probe(m, w.rateHi, d.api)
	}
	if ctlErr != nil {
		m.Stop()
	}
	runErr := <-errc
	close(stopPoll)
	pollWG.Wait()
	if ctlErr != nil {
		return nil, ctlErr
	}
	if runErr != nil {
		return nil, fmt.Errorf("manager run: %w", runErr)
	}

	c := m.Collector()
	d.committed, d.aborted, d.errors, d.retries = c.Committed(), c.Aborted(), c.Errors(), c.Retries()
	d.requested, d.postponed = m.Requested(), m.Postponed()
	d.perWorker = obs.perWorker
	for _, ws := range obs.perWorker {
		for _, s := range ws {
			// The Manager's phases are warm, sat, paced: a phase ordinal
			// is a kind.
			d.byKind[s.phase] = append(d.byKind[s.phase], s)
		}
	}
	for k := range d.byKind {
		ss := d.byKind[k]
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].startUS < ss[j].startUS })
	}
	return d, nil
}

// control is the harness's REST client against the in-process API server.
type control struct {
	client *http.Client
	base   string
	name   string
}

// do issues one request, drains the reply and returns how long it took.
func (c *control) do(method, path, body string) (time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewBufferString(body))
	if err != nil {
		return 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	took := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return took, nil
}

func (c *control) postRate(tps float64) (time.Duration, error) {
	return c.do("POST", "/api/v1/workloads/"+c.name+"/rate", fmt.Sprintf(`{"tps":%g}`, tps))
}

// probe times the control plane against the still-running Manager: the rate
// POST (re-posting the rate in force), the status GET, the Prometheus scrape
// and a Collector snapshot, twenty of each.
func (c *control) probe(m *core.Manager, rate float64, out map[string][]float64) error {
	for i := 0; i < 20; i++ {
		took, err := c.postRate(rate)
		if err != nil {
			return err
		}
		out["api.rate_post_us"] = append(out["api.rate_post_us"], float64(took.Nanoseconds())/1e3)
		if took, err = c.do("GET", "/api/v1/workloads/"+c.name, ""); err != nil {
			return err
		}
		out["api.status_get_us"] = append(out["api.status_get_us"], float64(took.Nanoseconds())/1e3)
		if took, err = c.do("GET", "/metrics", ""); err != nil {
			return err
		}
		out["api.metrics_scrape_us"] = append(out["api.metrics_scrape_us"], float64(took.Nanoseconds())/1e3)
		start := time.Now()
		m.Collector().Snapshot()
		out["stats.snapshot_us"] = append(out["stats.snapshot_us"], float64(time.Since(start).Nanoseconds())/1e3)
	}
	return nil
}

// window selects the samples of ss (sorted by start) that start in
// [fromUS, toUS) and returns them with the index of the first.
func window(ss []sample, fromUS, toUS int64) ([]sample, int64) {
	lo := sort.Search(len(ss), func(i int) bool { return ss[i].startUS >= fromUS })
	hi := sort.Search(len(ss), func(i int) bool { return ss[i].startUS >= toUS })
	return ss[lo:hi], int64(lo)
}

// skips turns the poller's readings into the postponed-arrival record the
// due-time reconstruction needs.
func (d *runData) skips() []skip {
	var out []skip
	var last int64
	for _, p := range d.polls {
		if p.postponed != last {
			out = append(out, skip{accepted: p.requested - p.postponed, postponed: p.postponed})
			last = p.postponed
		}
	}
	return out
}

// gapNS is the spacing core's producer uses for uniform arrivals, truncated
// to whole nanoseconds exactly as core truncates it, so the reconstructed
// schedule does not drift from the real one over a million arrivals.
func gapNS(rate float64) int64 { return int64(time.Duration(float64(time.Second) / rate)) }

// steady returns the bounds of the hi phase's measured window: after the
// control step, clear of the phase end.
func (d *runData) steady() (fromUS, toUS int64) {
	return d.postUS + us(d.plan.ctlWindow()), d.postUS + us(d.plan.hi-guard)
}

// depthAround is the mean queue depth over the polls within 5% of the steady
// window's length before tUS.
func (d *runData) depthAround(tUS int64) float64 {
	from, to := d.steady()
	span := (to - from) / 20
	var sum, n float64
	for _, p := range d.polls {
		if p.tUS > tUS-span && p.tUS <= tUS {
			sum += float64(p.depth)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// depthMax is the deepest queue the poller saw in the steady window.
func (d *runData) depthMax() int {
	from, to := d.steady()
	max := 0
	for _, p := range d.polls {
		if p.tUS >= from && p.tUS < to && p.depth > max {
			max = p.depth
		}
	}
	return max
}
