package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"benchpress/internal/dbdriver"
	"benchpress/internal/stats"
	"benchpress/internal/trace"
)

// Phase is one execution phase: a target rate, a transaction mixture, and a
// duration (the paper's Section 2.1 definition).
type Phase struct {
	// Duration is how long the phase runs.
	Duration time.Duration
	// Rate is the target transactions/second; 0 means unlimited (open
	// loop).
	Rate float64
	// Mix is the transaction mixture weights (parallel to the benchmark's
	// procedures); nil selects the benchmark default.
	Mix []float64
	// Exponential selects exponential arrival interleaving; false selects
	// uniform.
	Exponential bool
	// ThinkTime is an optional sleep after each transaction.
	ThinkTime time.Duration
}

// Options tunes a workload manager.
type Options struct {
	// Terminals is the number of worker threads (default 1).
	Terminals int
	// QueueCapacity bounds the request queue; excess arrivals are
	// postponed so that delivered throughput never exceeds the target
	// (default: one second of the highest phase rate, min 1024).
	QueueCapacity int
	// MaxRetries bounds transparent retries of concurrency aborts
	// (default 3).
	MaxRetries int
	// Trace, when set, receives one entry per transaction attempt.
	Trace *trace.Writer
	// Seed seeds worker RNGs (default 1).
	Seed int64
	// Name labels the workload (defaults to the benchmark name).
	Name string
}

// Manager is the centralized Workload Manager: it owns the request queue,
// generates arrivals at the target rate, and coordinates the workers.
type Manager struct {
	bench     Benchmark
	db        *dbdriver.DB
	opts      Options
	phases    []Phase
	procs     []Procedure
	collector *stats.Collector

	// queue carries each accepted arrival's due time, in nanoseconds since
	// start, so the worker that takes it knows how long it waited.
	queue chan int64

	// Dynamic controls (written by the phase runner and the control API).
	rateBits    atomic.Uint64 // float64 bits; 0.0 = unlimited
	exponential atomic.Bool
	thinkNS     atomic.Int64
	mix         atomic.Pointer[mixTable]
	pauseGate   atomic.Pointer[chan struct{}]
	phaseIdx    atomic.Int32
	// arrival, when non-nil, is an installed open-loop arrival process that
	// overrides the closed-loop rate controls (see arrival.go).
	arrival atomic.Pointer[ArrivalSpec]
	// capture, when non-nil, receives every attempt (workload capture mode).
	capture atomic.Pointer[captureBox]

	requested atomic.Int64
	postponed atomic.Int64
	// The pacer's self-report: how late each arrival was released (release
	// minus due), the time the producer spent yield-spinning, and the
	// schedule time it paced (the sum of the gaps).
	lag     stats.Histogram
	spunNS  atomic.Int64
	pacedNS atomic.Int64

	start time.Time
	// startNS mirrors start for readers outside the run's goroutines (the
	// API's status/arrival handlers); 0 until Run begins.
	startNS atomic.Int64
	started atomic.Bool
	done    chan struct{}

	// stop ends the run early when closed (the API's DELETE lifecycle).
	stop     chan struct{}
	stopOnce sync.Once
}

// mixTable is a sampled transaction mixture: cumulative weights.
type mixTable struct {
	weights []float64
	cum     []float64
	total   float64
}

func newMixTable(weights []float64) *mixTable {
	t := &mixTable{weights: append([]float64(nil), weights...)}
	t.cum = make([]float64, len(weights))
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		t.total += w
		t.cum[i] = t.total
	}
	return t
}

// sample picks a type index from the mixture by binary search over the
// cumulative weights, so wide mixtures cost O(log n) per arrival instead of
// a linear scan.
func (t *mixTable) sample(rng *rand.Rand) int {
	if t.total <= 0 {
		return 0
	}
	r := rng.Float64() * t.total
	i := sort.SearchFloat64s(t.cum, r)
	// SearchFloat64s returns the first cum[i] >= r; equality means entry
	// i's mass is exhausted at r (a zero-weight entry, or an exact
	// boundary), which belongs to the next entry with positive weight.
	for i < len(t.cum)-1 && t.cum[i] <= r {
		i++
	}
	return i
}

// NewManager builds a workload manager for a prepared benchmark.
func NewManager(b Benchmark, db *dbdriver.DB, phases []Phase, opts Options) *Manager {
	if opts.Terminals <= 0 {
		opts.Terminals = 1
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 3
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Name == "" {
		opts.Name = b.Name()
	}
	if opts.QueueCapacity <= 0 {
		maxRate := 0.0
		for _, p := range phases {
			if p.Rate > maxRate {
				maxRate = p.Rate
			}
		}
		opts.QueueCapacity = int(maxRate)
		if opts.QueueCapacity < 1024 {
			opts.QueueCapacity = 1024
		}
	}
	procs := b.Procedures()
	names := make([]string, len(procs))
	for i, p := range procs {
		names[i] = p.Name
	}
	m := &Manager{
		bench:     b,
		db:        db,
		opts:      opts,
		phases:    phases,
		procs:     procs,
		collector: stats.NewCollector(names),
		queue:     make(chan int64, opts.QueueCapacity),
		done:      make(chan struct{}),
		stop:      make(chan struct{}),
	}
	m.mix.Store(newMixTable(b.DefaultMix()))
	m.phaseIdx.Store(-1)
	return m
}

// Name returns the workload label.
func (m *Manager) Name() string { return m.opts.Name }

// Benchmark returns the underlying benchmark.
func (m *Manager) Benchmark() Benchmark { return m.bench }

// Collector returns the statistics collector.
func (m *Manager) Collector() *stats.Collector { return m.collector }

// DB returns the target database.
func (m *Manager) DB() *dbdriver.DB { return m.db }

// SetRate throttles the target rate at runtime; tps <= 0 means unlimited.
func (m *Manager) SetRate(tps float64) {
	if tps < 0 || math.IsInf(tps, 0) || math.IsNaN(tps) {
		tps = 0
	}
	m.rateBits.Store(math.Float64bits(tps))
}

// Rate returns the current target rate (0 = unlimited).
func (m *Manager) Rate() float64 { return math.Float64frombits(m.rateBits.Load()) }

// SetMix replaces the transaction mixture at runtime. A nil mix restores the
// benchmark default. Extra weights are ignored; missing ones are zero.
func (m *Manager) SetMix(weights []float64) {
	if weights == nil {
		m.mix.Store(newMixTable(m.bench.DefaultMix()))
		return
	}
	padded := make([]float64, len(m.procs))
	copy(padded, weights)
	m.mix.Store(newMixTable(padded))
}

// Mix returns the current mixture weights.
func (m *Manager) Mix() []float64 {
	return append([]float64(nil), m.mix.Load().weights...)
}

// SetThinkTime adjusts the per-transaction think time at runtime.
func (m *Manager) SetThinkTime(d time.Duration) { m.thinkNS.Store(int64(d)) }

// SetExponentialArrivals toggles the arrival distribution at runtime.
func (m *Manager) SetExponentialArrivals(on bool) { m.exponential.Store(on) }

// Pause blocks workers and the arrival generator until Resume. Used by the
// game's mixture dialog ("OLTP-Bench temporarily blocks any thread from
// executing a transaction request").
func (m *Manager) Pause() {
	ch := make(chan struct{})
	if !m.pauseGate.CompareAndSwap(nil, &ch) {
		return // already paused
	}
}

// Resume releases a Pause.
func (m *Manager) Resume() {
	if ch := m.pauseGate.Swap(nil); ch != nil {
		close(*ch)
	}
}

// Paused reports whether the workload is paused.
func (m *Manager) Paused() bool { return m.pauseGate.Load() != nil }

// waitIfPaused blocks while the pause gate is closed.
func (m *Manager) waitIfPaused(ctx context.Context) {
	for {
		ch := m.pauseGate.Load()
		if ch == nil {
			return
		}
		select {
		case <-*ch:
		case <-ctx.Done():
			return
		}
	}
}

// PhaseIndex returns the running phase ordinal (-1 before start).
func (m *Manager) PhaseIndex() int { return int(m.phaseIdx.Load()) }

// AttemptObserver receives one notification per transaction attempt while
// capture mode is on. The entry carries the attempt's timing and outcome;
// args holds the raw arguments of the attempt's first statement on sampled
// attempts and is nil otherwise (args must not be retained or mutated).
// Implementations must be safe for concurrent calls from all workers.
type AttemptObserver interface {
	ObserveAttempt(e trace.Entry, args []any)
}

// captureBox pairs the observer with its parameter-sampling cadence.
type captureBox struct {
	obs AttemptObserver
	// every samples statement parameters on one attempt in every `every`
	// (1 = all attempts); timing/outcome is observed on every attempt.
	every int64
	n     atomic.Int64
}

// sampled reports whether this attempt's parameters should be captured.
func (b *captureBox) sampled() bool {
	if b.every <= 1 {
		return true
	}
	return b.n.Add(1)%b.every == 0
}

// SetCapture turns capture mode on: every attempt is reported to obs, with
// statement parameters sampled on one attempt in sampleEvery (min 1). A nil
// obs turns capture off. Capture can be toggled at any point of a run; the
// non-capturing hot path pays one atomic load per attempt.
func (m *Manager) SetCapture(obs AttemptObserver, sampleEvery int) {
	if obs == nil {
		m.capture.Store(nil)
		return
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	m.capture.Store(&captureBox{obs: obs, every: int64(sampleEvery)})
}

// Capturing reports whether capture mode is on.
func (m *Manager) Capturing() bool { return m.capture.Load() != nil }

// Stop ends the run early and gracefully: the phase runner skips its
// remaining phases, workers drain, and Run returns nil. Safe to call from
// any goroutine, multiple times, before or after Run. This is the lifecycle
// hook behind DELETE /api/v1/workloads/{name}.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
}

// Stopping reports whether Stop has been requested.
func (m *Manager) Stopping() bool {
	select {
	case <-m.stop:
		return true
	default:
		return false
	}
}

// QueueDepth returns the number of generated arrivals waiting for a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// QueueCapacity returns the request queue's capacity.
func (m *Manager) QueueCapacity() int { return cap(m.queue) }

// Postponed returns the number of arrivals shed because the queue was full
// (the workers could not keep up with the target rate).
func (m *Manager) Postponed() int64 { return m.postponed.Load() }

// Requested returns the number of generated arrivals.
func (m *Manager) Requested() int64 { return m.requested.Load() }

// SchedLag digests how late the pacer released arrivals: release time minus
// due time, over every generated arrival. With PacerSpinFrac it says whether
// a missed rate was the testbed's doing or the DBMS's.
func (m *Manager) SchedLag() stats.LatencySummary { return m.lag.Snapshot() }

// PacerSpinFrac is the share of the paced schedule the producer spent
// yield-spinning for a due time (0 before any paced arrival); the pacer's
// budget keeps it under a quarter.
func (m *Manager) PacerSpinFrac() float64 {
	paced := m.pacedNS.Load()
	if paced == 0 {
		return 0
	}
	return float64(m.spunNS.Load()) / float64(paced)
}

// applyPhase installs a phase's settings.
func (m *Manager) applyPhase(i int) {
	p := m.phases[i]
	m.SetRate(p.Rate)
	m.SetExponentialArrivals(p.Exponential)
	m.SetThinkTime(p.ThinkTime)
	if p.Mix != nil {
		m.SetMix(p.Mix)
	} else {
		m.SetMix(nil)
	}
	m.phaseIdx.Store(int32(i))
}

// Run executes all phases, blocking until they complete or ctx is
// cancelled. It may be called once.
func (m *Manager) Run(ctx context.Context) error {
	if !m.started.CompareAndSwap(false, true) {
		return errAlreadyStarted
	}
	defer close(m.done)
	m.start = time.Now()
	m.startNS.Store(m.start.UnixNano())
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The first phase is in force before anything runs, so no attempt is
	// ever attributed to phase -1.
	if len(m.phases) > 0 {
		m.applyPhase(0)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.produce(runCtx)
	}()
	for w := 0; w < m.opts.Terminals; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m.work(runCtx, id)
		}(w)
	}

	// Phase runner.
	var err error
	stopped := false
	for i := range m.phases {
		if i > 0 {
			m.applyPhase(i)
		}
		select {
		case <-time.After(m.phases[i].Duration):
		case <-ctx.Done():
			err = ctx.Err()
		case <-m.stop:
			stopped = true
		}
		if err != nil || stopped {
			break
		}
	}
	cancel()
	wg.Wait()
	if m.opts.Trace != nil {
		if ferr := m.opts.Trace.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("core: flush trace: %w", ferr)
		}
	}
	return err
}

var errAlreadyStarted = errors.New("core: manager already started")

// Done is closed when Run returns.
func (m *Manager) Done() <-chan struct{} { return m.done }

// produce generates arrivals at the target rate and enqueues each with its
// due time, interleaving with uniform or exponential spacing. The schedule is
// arithmetic — every due time is the previous one plus the gap — and the
// pacer holds each arrival until it is due, so a late wake-up delays an
// arrival but never shifts the ones after it; after a wake-up that overslept
// several gaps the loop releases all that are due as one batch, each stamped
// with its own due time. When the queue is full the arrival is postponed
// (counted, not queued), so delivered throughput never exceeds the target.
func (m *Manager) produce(ctx context.Context) {
	rng := rand.New(rand.NewSource(m.opts.Seed * 7919))
	var pace pacer
	// next is the due time of the arrival being generated, in nanoseconds
	// since m.start.
	next := time.Since(m.start)
	// The idle poll needs no precision and must not hold a P the closed-loop
	// workers could use, so it sleeps on a runtime timer.
	idle := time.NewTimer(time.Hour)
	defer idle.Stop()
	for ctx.Err() == nil {
		// An installed open-loop process overrides the closed-loop controls:
		// its instantaneous rate is a deterministic function of elapsed run
		// time (Poisson/uniform/burst × diurnal shape × amplification).
		var rate float64
		var poisson bool
		if sp := m.arrival.Load(); sp != nil {
			rate = sp.RateAt(time.Since(m.start))
			poisson = sp.Process == ProcessPoisson
		} else {
			rate = m.Rate()
			poisson = m.exponential.Load()
		}
		if rate <= 0 || m.Paused() {
			// Unlimited phases bypass the queue entirely (workers run
			// closed-loop at full speed); while paused — or inside a burst
			// process's off window — no arrivals are generated.
			idle.Reset(time.Millisecond)
			select {
			case <-idle.C:
			case <-ctx.Done():
				return
			}
			next = time.Since(m.start)
			continue
		}
		// mean is the spacing at this rate, and the gap itself for uniform
		// arrivals; a Poisson gap is an exponential draw around it.
		mean := time.Duration(float64(time.Second) / rate)
		gap := mean
		if poisson {
			gap = time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		}
		next += gap
		now := time.Since(m.start)
		if next > now {
			var ok bool
			if now, ok = pace.wait(ctx, m.start, next, mean); !ok {
				return
			}
			m.spunNS.Store(int64(pace.spun))
		} else if now-next > time.Second {
			// Cap catch-up bursts at one second of backlog.
			next = now - time.Second
		}
		m.pacedNS.Add(int64(gap))
		m.lag.Record(now - next)
		m.requested.Add(1)
		select {
		case m.queue <- int64(next):
		default:
			m.postponed.Add(1)
		}
	}
}

// work is one worker thread: pull a request, sample the mixture, run the
// transaction control code, record the outcome, think, repeat.
func (m *Manager) work(ctx context.Context, id int) {
	conn := m.db.Connect()
	// Worker teardown has no error channel; a rollback failure on close
	// would have surfaced on the transaction's own Commit/Rollback first.
	defer func() { _ = conn.Close() }()
	rng := rand.New(rand.NewSource(m.opts.Seed + int64(id)*104729 + 13))
	// rec is this worker's shard handle into the collector: recording an
	// outcome through it is a few atomic adds on a private cache line, with
	// no collector-wide lock on the hot path.
	rec := m.collector.Recorder(id)
	// One reusable timer serves both waits of the loop: bounding how long a
	// worker blocks on the queue before re-reading the rate (so a live
	// switch to unlimited does not strand workers on an idle queue), and
	// pacing think time. Between uses its channel is always drained, so
	// Reset is safe.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		if ctx.Err() != nil {
			return
		}
		m.waitIfPaused(ctx)
		due := unpaced
		if m.paced() {
			timer.Reset(50 * time.Millisecond)
			select {
			case due = <-m.queue:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
				continue
			case <-ctx.Done():
				return
			}
			// A pause issued while we waited still gates execution.
			m.waitIfPaused(ctx)
		}
		if ctx.Err() != nil {
			return
		}
		typeIdx := m.mix.Load().sample(rng)
		m.execute(conn, rng, rec, typeIdx, id, due)
		if think := time.Duration(m.thinkNS.Load()); think > 0 {
			timer.Reset(think)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return
			}
		}
	}
}

// unpaced is the due time of a transaction no arrival asked for: a worker
// running closed-loop in an unlimited phase.
const unpaced int64 = -1

// execute runs one transaction with retry-on-conflict, recording statistics
// (through the worker's shard handle), trace entries, and — in capture
// mode — the attempt observation with sampled statement parameters. due is
// the arrival's due time in nanoseconds since m.start, or unpaced; a paced
// transaction also records its response time, due to end.
func (m *Manager) execute(conn *dbdriver.Conn, rng *rand.Rand, rec stats.Recorder, typeIdx, workerID int, due int64) {
	proc := &m.procs[typeIdx]
	box := m.capture.Load()
	var argVals []any
	if box != nil && box.sampled() {
		// Capture the first statement's arguments as this attempt's
		// parameter sample; the copy outlives the procedure's scratch.
		conn.SetArgObserver(func(sql string, args []any) {
			if argVals == nil && len(args) > 0 {
				argVals = append([]any(nil), args...)
			}
		})
		defer conn.SetArgObserver(nil)
	}
	start := time.Now()
	var status stats.Status
	for attempt := 0; ; attempt++ {
		err := m.runOnce(conn, rng, proc)
		switch {
		case err == nil:
			status = stats.StatusOK
		case errors.Is(err, ErrExpectedAbort):
			// By-design rollback: completed per the workload spec.
			status = stats.StatusOK
		case dbdriver.IsRetryable(err) && attempt < m.opts.MaxRetries:
			rec.Record(typeIdx, stats.StatusRetry, 0)
			// Randomized exponential backoff prevents the lockstep
			// livelock of first-updater-wins engines (two conflicting
			// transactions re-colliding forever at full speed).
			backoff := time.Duration(100<<uint(attempt)) * time.Microsecond
			time.Sleep(time.Duration(rng.Int63n(int64(backoff) + 1)))
			continue
		case dbdriver.IsRetryable(err):
			status = stats.StatusAborted
		default:
			status = stats.StatusError
		}
		break
	}
	latency := time.Since(start)
	var queued time.Duration
	if due == unpaced {
		rec.Record(typeIdx, status, latency)
	} else {
		queued = start.Sub(m.start) - time.Duration(due)
		rec.RecordPaced(typeIdx, status, latency, queued+latency)
	}
	if m.opts.Trace != nil || box != nil {
		st := "ok"
		switch status {
		case stats.StatusAborted:
			st = "abort"
		case stats.StatusError:
			st = "error"
		}
		e := trace.Entry{
			StartUS:   start.Sub(m.start).Microseconds(),
			LatencyUS: latency.Microseconds(),
			QueueUS:   queued.Microseconds(),
			Type:      proc.Name,
			Phase:     m.PhaseIndex(),
			Status:    st,
			Worker:    workerID,
		}
		if argVals != nil {
			e.Params = trace.FormatParams(argVals)
		}
		if m.opts.Trace != nil {
			m.opts.Trace.Add(e)
		}
		if box != nil {
			box.obs.ObserveAttempt(e, argVals)
		}
	}
}

// runOnce brackets one attempt of the procedure with Begin/Commit/Rollback.
func (m *Manager) runOnce(conn *dbdriver.Conn, rng *rand.Rand, proc *Procedure) error {
	var beginErr error
	if proc.ReadOnly {
		beginErr = conn.BeginReadOnly()
	} else {
		beginErr = conn.Begin()
	}
	if beginErr != nil {
		return beginErr
	}
	if err := proc.Fn(conn, rng); err != nil {
		// The procedure's error decides retry classification; a rollback
		// failure would surface on the worker's next Begin anyway.
		_ = conn.Rollback()
		return err
	}
	return conn.Commit()
}

// Status is the manager's dynamic state exposed through the control API.
type Status struct {
	Name      string
	Benchmark string
	DBMS      string
	Phase     int
	Rate      float64
	Unlimited bool
	Mix       []float64
	Paused    bool
	Stopped   bool
	Postponed int64
	// Arrival is the installed arrival process (Process "closed" when the
	// manager runs its legacy closed-loop pacing) and EffectiveRate its
	// instantaneous target.
	Arrival       ArrivalSpec
	EffectiveRate float64
	Capturing     bool
	// SchedLag and PacerSpinFrac are the pacer's self-report (see the
	// methods of the same names).
	SchedLag      stats.LatencySummary
	PacerSpinFrac float64
	Snapshot      stats.Snapshot
}

// Status reports the manager's instantaneous state.
func (m *Manager) Status() Status {
	rate := m.Rate()
	return Status{
		Name:          m.opts.Name,
		Benchmark:     m.bench.Name(),
		DBMS:          m.db.Personality().Name,
		Phase:         m.PhaseIndex(),
		Rate:          rate,
		Unlimited:     rate <= 0 && m.arrival.Load() == nil,
		Mix:           m.Mix(),
		Paused:        m.Paused(),
		Stopped:       m.Stopping(),
		Postponed:     m.Postponed(),
		Arrival:       m.Arrival(),
		EffectiveRate: m.EffectiveRate(),
		Capturing:     m.Capturing(),
		SchedLag:      m.SchedLag(),
		PacerSpinFrac: m.PacerSpinFrac(),
		Snapshot:      m.collector.Snapshot(),
	}
}

// RunAll executes several workload managers concurrently (multi-tenancy),
// returning the first error.
func RunAll(ctx context.Context, managers ...*Manager) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(managers))
	for _, m := range managers {
		wg.Add(1)
		go func(m *Manager) {
			defer wg.Done()
			if err := m.Run(ctx); err != nil && err != context.Canceled && err != context.DeadlineExceeded {
				errs <- err
			}
		}(m)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// PhasesFromRates converts a recorded per-window rate schedule (see
// trace.RateSchedule) into executable phases, replaying a captured load
// curve against another target - the trace.txt replay path of the paper's
// Figure 1. A nil mix applies the benchmark default in every phase.
func PhasesFromRates(rates []float64, window time.Duration, mix []float64) []Phase {
	if window <= 0 {
		window = time.Second
	}
	phases := make([]Phase, len(rates))
	for i, r := range rates {
		phases[i] = Phase{Duration: window, Rate: r, Mix: mix}
	}
	return phases
}
