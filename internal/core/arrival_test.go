package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"benchpress/internal/dbdriver"
	"benchpress/internal/trace"
)

func TestArrivalSpecNormalize(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		sp := ArrivalSpec{Process: ProcessPoisson, BaseRate: 100}
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
		if sp.Multiplier != 1 || sp.Shape != ShapeFlat {
			t.Fatalf("defaults not filled: %+v", sp)
		}
	})
	t.Run("burst mean preserving", func(t *testing.T) {
		sp := ArrivalSpec{Process: ProcessBurst, BaseRate: 100,
			BurstOn: time.Second, BurstOff: 3 * time.Second}
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
		// Factor (on+off)/on = 4 keeps the sustained mean at BaseRate.
		if sp.BurstFactor != 4 {
			t.Fatalf("burst factor = %v, want 4", sp.BurstFactor)
		}
	})
	t.Run("closed alias", func(t *testing.T) {
		sp := ArrivalSpec{}
		if err := sp.Normalize(); err != nil {
			t.Fatal(err)
		}
		if sp.Process != ProcessClosed || sp.open() {
			t.Fatalf("zero spec should normalize closed: %+v", sp)
		}
	})
	for _, bad := range []ArrivalSpec{
		{Process: "warp", BaseRate: 1},
		{Process: ProcessPoisson}, // no rate
		{Process: ProcessPoisson, BaseRate: -5},
		{Process: ProcessPoisson, BaseRate: 10, Multiplier: -1},
		{Process: ProcessPoisson, BaseRate: 10, Skew: 1.5},
		{Process: ProcessPoisson, BaseRate: 10, Shape: "square"},
		{Process: ProcessPoisson, BaseRate: 10, Shape: ShapeDiurnal, ShapeAmplitude: 2},
		{Process: ProcessBurst, BaseRate: 10, BurstFactor: 0.5},
	} {
		sp := bad
		if err := sp.Normalize(); err == nil {
			t.Errorf("spec %+v normalized without error", bad)
		}
	}
}

func TestArrivalRateAt(t *testing.T) {
	flat := ArrivalSpec{Process: ProcessPoisson, BaseRate: 100, Multiplier: 10}
	if err := flat.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got := flat.RateAt(5 * time.Second); got != 1000 {
		t.Fatalf("flat rate = %v, want 1000", got)
	}

	diurnal := ArrivalSpec{Process: ProcessUniform, BaseRate: 100,
		Shape: ShapeDiurnal, ShapePeriod: 40 * time.Second, ShapeAmplitude: 0.5}
	if err := diurnal.Normalize(); err != nil {
		t.Fatal(err)
	}
	// Peak at period/4 (sin=1), trough at 3*period/4 (sin=-1).
	if got := diurnal.RateAt(10 * time.Second); math.Abs(got-150) > 1e-6 {
		t.Fatalf("diurnal peak = %v, want 150", got)
	}
	if got := diurnal.RateAt(30 * time.Second); math.Abs(got-50) > 1e-6 {
		t.Fatalf("diurnal trough = %v, want 50", got)
	}

	burst := ArrivalSpec{Process: ProcessBurst, BaseRate: 100,
		BurstOn: time.Second, BurstOff: 3 * time.Second}
	if err := burst.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got := burst.RateAt(500 * time.Millisecond); got != 400 {
		t.Fatalf("in-burst rate = %v, want 400", got)
	}
	if got := burst.RateAt(2 * time.Second); got != 0 {
		t.Fatalf("off-window rate = %v, want 0", got)
	}
	// Next cycle's on window.
	if got := burst.RateAt(4500 * time.Millisecond); got != 400 {
		t.Fatalf("second-cycle rate = %v, want 400", got)
	}

	closed := ArrivalSpec{Process: ProcessClosed}
	if got := closed.RateAt(time.Second); got != 0 {
		t.Fatalf("closed RateAt = %v", got)
	}
}

// skewBench is a stubBench that records the skew dial.
type skewBench struct {
	stubBench
	skew float64
	mu   sync.Mutex
}

func (b *skewBench) SetSkew(s float64) {
	b.mu.Lock()
	b.skew = s
	b.mu.Unlock()
}

func TestSetArrivalSkewDial(t *testing.T) {
	db, err := dbdriver.Open("gomvcc")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// A benchmark without the dial rejects skew > 0 but accepts skew 0.
	plain := &stubBench{}
	if err := Prepare(plain, db, 1); err != nil {
		t.Fatal(err)
	}
	m := NewManager(plain, db, []Phase{{Duration: time.Second}}, Options{})
	if err := m.SetArrival(ArrivalSpec{Process: ProcessPoisson, BaseRate: 10, Skew: 0.5}); err == nil {
		t.Fatal("skew accepted by a non-Skewable benchmark")
	}
	if err := m.SetArrival(ArrivalSpec{Process: ProcessPoisson, BaseRate: 10}); err != nil {
		t.Fatal(err)
	}
	if got := m.Arrival(); got.Process != ProcessPoisson || got.BaseRate != 10 {
		t.Fatalf("arrival = %+v", got)
	}

	// A Skewable benchmark has the dial forwarded, including back to zero.
	sk := &skewBench{}
	m2 := NewManager(sk, db, []Phase{{Duration: time.Second}}, Options{})
	if err := m2.SetArrival(ArrivalSpec{Process: ProcessPoisson, BaseRate: 10, Skew: 0.3}); err != nil {
		t.Fatal(err)
	}
	if sk.skew != 0.3 {
		t.Fatalf("skew = %v, want 0.3", sk.skew)
	}
	if err := m2.SetArrival(ArrivalSpec{}); err != nil {
		t.Fatal(err)
	}
	if sk.skew != 0 {
		t.Fatalf("skew not reset: %v", sk.skew)
	}
	// Removing the spec restores closed-loop reporting.
	if got := m2.Arrival(); got.Process != ProcessClosed {
		t.Fatalf("arrival after reset = %+v", got)
	}
}

func TestOpenLoopPoissonRate(t *testing.T) {
	const target = 200.0
	// The phase itself is unlimited; the installed arrival process governs.
	m, _ := newStubWorkload(t, []Phase{{Duration: 1500 * time.Millisecond, Rate: 0}}, Options{Terminals: 4})
	if err := m.SetArrival(ArrivalSpec{Process: ProcessPoisson, BaseRate: target}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := float64(m.Collector().Committed()) / 1.5
	if got < target*0.80 || got > target*1.10 {
		t.Fatalf("measured %.1f tps, open-loop target %.1f", got, target)
	}
}

func TestArrivalAmplification(t *testing.T) {
	// Multiplier ×4 over a 50/s base must deliver ~200/s.
	m, _ := newStubWorkload(t, []Phase{{Duration: time.Second, Rate: 0}}, Options{Terminals: 4})
	if err := m.SetArrival(ArrivalSpec{Process: ProcessUniform, BaseRate: 50, Multiplier: 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := float64(m.Collector().Committed())
	if got < 200*0.80 || got > 200*1.10 {
		t.Fatalf("amplified throughput %.0f, want ~200", got)
	}
}

func TestArrivalLiveSwitch(t *testing.T) {
	// Start closed-loop at 400/s, switch mid-run to a burst process sitting
	// in its off window: arrivals must stop almost immediately.
	m, _ := newStubWorkload(t, []Phase{{Duration: 900 * time.Millisecond, Rate: 400}}, Options{Terminals: 2})
	var atSwitch, after int64
	switched := make(chan struct{})
	go func() {
		defer close(switched)
		time.Sleep(300 * time.Millisecond)
		// BurstOn larger than the remaining run keeps RateAt in the on
		// window; flip BurstOn/Off so we land in silence instead.
		if err := m.SetArrival(ArrivalSpec{Process: ProcessBurst, BaseRate: 400,
			BurstOn: time.Nanosecond, BurstOff: time.Hour, BurstFactor: 1}); err != nil {
			t.Error(err)
			return
		}
		time.Sleep(50 * time.Millisecond) // drain in-flight queue entries
		atSwitch = m.Collector().Committed()
		time.Sleep(400 * time.Millisecond)
		after = m.Collector().Committed()
	}()
	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-switched
	if atSwitch == 0 {
		t.Fatal("no progress before the switch")
	}
	if after-atSwitch > 10 {
		t.Fatalf("burst off window still committed %d", after-atSwitch)
	}
	st := m.Status()
	if st.Arrival.Process != ProcessBurst || st.EffectiveRate != 0 {
		t.Fatalf("status arrival = %+v effective = %v", st.Arrival, st.EffectiveRate)
	}
}

// captureSink collects ObserveAttempt calls for capture-path tests.
type captureSink struct {
	mu      sync.Mutex
	entries []trace.Entry
	sampled int
}

func (c *captureSink) ObserveAttempt(e trace.Entry, args []any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = append(c.entries, e)
	if args != nil {
		c.sampled++
	}
}

func TestCaptureObserver(t *testing.T) {
	m, _ := newStubWorkload(t, []Phase{{Duration: 400 * time.Millisecond, Rate: 300}}, Options{Terminals: 2})
	sink := &captureSink{}
	m.SetCapture(sink, 1) // sample every attempt
	if !m.Capturing() {
		t.Fatal("Capturing() = false")
	}
	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.entries) == 0 {
		t.Fatal("no attempts observed")
	}
	if int64(len(sink.entries)) != m.Collector().Committed()+m.Collector().Aborted()+m.Collector().Errors() {
		t.Fatalf("observed %d, outcomes %d", len(sink.entries), m.Collector().Committed())
	}
	// Both stub procedures bind one ?-parameter, so every sampled attempt
	// carries args and a digest.
	if sink.sampled != len(sink.entries) {
		t.Fatalf("sampled %d of %d at every=1", sink.sampled, len(sink.entries))
	}
	for _, e := range sink.entries[:3] {
		if e.Params == "" {
			t.Fatalf("entry %+v has no param digest", e)
		}
	}
}

func TestCaptureSampling(t *testing.T) {
	m, _ := newStubWorkload(t, []Phase{{Duration: 400 * time.Millisecond, Rate: 300}}, Options{Terminals: 2})
	sink := &captureSink{}
	m.SetCapture(sink, 10)
	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.SetCapture(nil, 0)
	if m.Capturing() {
		t.Fatal("Capturing() = true after detach")
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	n, s := len(sink.entries), sink.sampled
	if n == 0 || s == 0 {
		t.Fatalf("entries=%d sampled=%d", n, s)
	}
	// 1-in-10 sampling: allow wide slack for worker interleave.
	if s > n/5 {
		t.Fatalf("sampled %d of %d at every=10", s, n)
	}
}

// benchExecute measures the worker hot path (execute: retry loop, stats
// shard record, trace/capture branches) against a benchmark whose
// procedures do no database work, isolating the framework overhead that the
// open-loop additions must keep within the bench gate.
func benchExecute(b *testing.B, arrival bool) {
	db, err := dbdriver.Open("gomvcc")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	sb := &nopBench{}
	if err := Prepare(sb, db, 1); err != nil {
		b.Fatal(err)
	}
	m := NewManager(sb, db, []Phase{{Duration: time.Hour}}, Options{Terminals: 1})
	m.start = time.Now()
	m.startNS.Store(m.start.UnixNano())
	if arrival {
		if err := m.SetArrival(ArrivalSpec{Process: ProcessPoisson, BaseRate: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	conn := db.Connect()
	defer func() { _ = conn.Close() }()
	rng := rand.New(rand.NewSource(1))
	rec := m.collector.Recorder(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.execute(conn, rng, rec, 0, 0, unpaced)
	}
}

// BenchmarkExecuteClosedLoop is the pre-existing worker hot path: no
// arrival spec, no capture.
func BenchmarkExecuteClosedLoop(b *testing.B) { benchExecute(b, false) }

// BenchmarkExecuteOpenLoop is the same path with an open-loop arrival spec
// installed, for comparison with the closed-loop case; the gated number for
// this path is bench/'s core.noop_txn_ns.
func BenchmarkExecuteOpenLoop(b *testing.B) { benchExecute(b, true) }

// nopBench has a single no-op procedure, so the benchmarks above time the
// framework, not the storage engine.
type nopBench struct{}

func (nopBench) Name() string { return "nop" }
func (nopBench) Procedures() []Procedure {
	return []Procedure{{Name: "Nop", Fn: func(conn *dbdriver.Conn, rng *rand.Rand) error { return nil }}}
}
func (nopBench) DefaultMix() []float64                      { return []float64{100} }
func (nopBench) CreateSchema(conn *dbdriver.Conn) error     { return nil }
func (nopBench) Load(db *dbdriver.DB, rng *rand.Rand) error { return nil }
