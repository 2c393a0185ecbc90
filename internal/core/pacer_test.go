package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"benchpress/internal/dbdriver"
	"benchpress/internal/trace"
)

// withRetries runs a timing-sensitive check up to three times: a loaded host
// can spoil one run, a broken pacer spoils all of them.
func withRetries(t *testing.T, check func() error) {
	t.Helper()
	var err error
	for attempt := 1; attempt <= 3; attempt++ {
		if err = check(); err == nil {
			return
		}
		t.Logf("attempt %d: %v", attempt, err)
	}
	t.Fatal(err)
}

// twoNopBench has two no-op procedures, so a test can watch the mixture
// without paying for an engine.
type twoNopBench struct{ nopBench }

func (twoNopBench) Procedures() []Procedure {
	nop := func(*dbdriver.Conn, *rand.Rand) error { return nil }
	return []Procedure{{Name: "A", Fn: nop}, {Name: "B", Fn: nop}}
}
func (twoNopBench) DefaultMix() []float64 { return []float64{100, 0} }

// newNopManager builds a manager over a benchmark that does no database work,
// so what a test times is the framework.
func newNopManager(t *testing.T, b Benchmark, phases []Phase, opts Options) *Manager {
	t.Helper()
	db, err := dbdriver.Open("gomvcc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	if err := Prepare(b, db, 1); err != nil {
		t.Fatal(err)
	}
	return NewManager(b, db, phases, opts)
}

// runCaptured runs m to completion and returns every attempt in start order.
func runCaptured(t *testing.T, m *Manager) []trace.Entry {
	t.Helper()
	sink := &captureSink{}
	m.SetCapture(sink, math.MaxInt) // timing and outcome only
	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(sink.entries, func(i, j int) bool { return sink.entries[i].StartUS < sink.entries[j].StartUS })
	return sink.entries
}

func medianInt64(v []int64) int64 {
	s := append([]int64(nil), v...)
	sortInt64s(s)
	return s[len(s)/2]
}

// TestPacerHitsItsMarks drives the no-op benchmark at a rate whose gap the
// pacer spins for and at one it batches: the median transaction starts
// within the bound of its due time, none starts before it, and the number
// delivered is the rate times the duration.
func TestPacerHitsItsMarks(t *testing.T) {
	for _, tc := range []struct {
		rate     float64
		medianUS int64
	}{{1000, 50}, {20000, 150}} {
		t.Run(fmt.Sprintf("%gtps", tc.rate), func(t *testing.T) {
			withRetries(t, func() error {
				const dur = time.Second
				m := newNopManager(t, nopBench{}, []Phase{{Duration: dur, Rate: tc.rate}}, Options{Terminals: 2})
				entries := runCaptured(t, m)
				lags := make([]int64, len(entries))
				for i, e := range entries {
					if lags[i] = e.QueueUS; e.QueueUS < 0 {
						return fmt.Errorf("attempt %d started %d us before it was due", i, -e.QueueUS)
					}
				}
				want := tc.rate * dur.Seconds()
				if got := float64(len(entries)); math.Abs(got-want) > 0.002*want {
					return fmt.Errorf("delivered %v transactions, want %v within 0.2%%", got, want)
				}
				lag := m.SchedLag()
				t.Logf("start lag p50 %d us; release lag %v; spin %.3f", medianInt64(lags), lag, m.PacerSpinFrac())
				if got := medianInt64(lags); got > tc.medianUS {
					return fmt.Errorf("median start lag %d us, want <= %d", got, tc.medianUS)
				}
				if got := lag.P50.Microseconds(); got > tc.medianUS {
					return fmt.Errorf("median release lag %d us, want <= %d", got, tc.medianUS)
				}
				return nil
			})
		})
	}
}

// TestScheduleArithmeticAcrossSetRate reads the producer's queue directly:
// every due time is the previous one plus the gap of the rate in force, to
// the nanosecond, a live SetRate changes the gap without a seam, and no
// arrival is released before it is due.
func TestScheduleArithmeticAcrossSetRate(t *testing.T) {
	const before, after = 2000.0, 5000.0
	m := newNopManager(t, nopBench{}, []Phase{{Duration: time.Hour, Rate: before}}, Options{})
	m.start = time.Now()
	m.SetRate(before)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.produce(ctx)
	}()
	gapOf := func(rate float64) int64 { return int64(time.Duration(float64(time.Second) / rate)) }
	var dues []int64
	for len(dues) < 600 {
		due := <-m.queue
		if now := int64(time.Since(m.start)); now < due {
			t.Fatalf("arrival %d released %d ns before it was due", len(dues), due-now)
		}
		if dues = append(dues, due); len(dues) == 200 {
			m.SetRate(after)
		}
	}
	cancel()
	wg.Wait()
	switched := false
	for i := 1; i < len(dues); i++ {
		switch d := dues[i] - dues[i-1]; {
		case d == gapOf(before) && !switched:
		case d == gapOf(after):
			switched = true
		default:
			t.Fatalf("gap %d is %d ns (switched: %v), want %d then %d", i, d, switched, gapOf(before), gapOf(after))
		}
	}
	if !switched {
		t.Fatal("the new rate never took effect")
	}
}

// TestParkedPacerStopsPromptly cancels, stops and pauses a run whose
// producer is parked between arrivals half a second apart: each returns
// within 10 ms and leaves no goroutine behind.
func TestParkedPacerStopsPromptly(t *testing.T) {
	base := runtime.NumGoroutine()
	const limit = 10 * time.Millisecond
	for _, how := range []string{"cancel", "stop", "pause then stop"} {
		t.Run(how, func(t *testing.T) {
			withRetries(t, func() error {
				m := newNopManager(t, nopBench{}, []Phase{{Duration: time.Hour, Rate: 2}}, Options{Terminals: 2})
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				errc := make(chan error, 1)
				go func() { errc <- m.Run(ctx) }()
				time.Sleep(50 * time.Millisecond)
				from := time.Now()
				switch how {
				case "cancel":
					cancel()
				case "pause then stop":
					m.Pause()
					if took := time.Since(from); took > limit || !m.Paused() {
						return fmt.Errorf("Pause took %v (paused: %v)", took, m.Paused())
					}
					fallthrough
				default:
					m.Stop()
				}
				err := <-errc
				if took := time.Since(from); took > limit {
					return fmt.Errorf("Run returned %v after %s, want within %v", took, how, limit)
				}
				if how != "cancel" && err != nil {
					t.Fatalf("Run = %v", err)
				}
				return nil
			})
		})
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after", base, runtime.NumGoroutine())
		}
	}
}

// ksExponential is the Kolmogorov-Smirnov distance between the sample and
// the exponential distribution of the given mean.
func ksExponential(sample []int64, mean float64) float64 {
	s := append([]int64(nil), sample...)
	sortInt64s(s)
	var worst float64
	for i, x := range s {
		cdf := 1 - math.Exp(-float64(x)/mean)
		worst = math.Max(worst, math.Max(math.Abs(cdf-float64(i)/float64(len(s))), math.Abs(float64(i+1)/float64(len(s))-cdf)))
	}
	return worst
}

// TestDeliveredArrivalTimes checks the open-loop processes where it counts,
// at the delivered end: the times at which transactions start, not the
// times the schedule asked for.
func TestDeliveredArrivalTimes(t *testing.T) {
	t.Run("poisson", func(t *testing.T) {
		withRetries(t, func() error {
			const rate, dur = 500.0, 4 * time.Second
			m := newNopManager(t, nopBench{}, []Phase{{Duration: dur}}, Options{Terminals: 4})
			if err := m.SetArrival(ArrivalSpec{Process: ProcessPoisson, BaseRate: rate}); err != nil {
				t.Fatal(err)
			}
			entries := runCaptured(t, m)
			if got, want := float64(len(entries)), rate*dur.Seconds(); math.Abs(got-want) > 0.1*want {
				return fmt.Errorf("delivered %v transactions, want about %v", got, want)
			}
			gaps := make([]int64, len(entries)-1)
			for i := range gaps {
				gaps[i] = entries[i+1].StartUS - entries[i].StartUS
			}
			d := ksExponential(gaps, 1e6/rate)
			t.Logf("KS distance of %d delivered inter-start gaps from Exp(%g/s): %.3f", len(gaps), rate, d)
			if d > 0.05 {
				return fmt.Errorf("KS distance %.3f, want <= 0.05", d)
			}
			return nil
		})
	})
	t.Run("burst", func(t *testing.T) {
		withRetries(t, func() error {
			// 100 ms at 4000/s, 300 ms of silence, three times.
			const on, off, inBurst = 100 * time.Millisecond, 300 * time.Millisecond, 4000.0
			m := newNopManager(t, nopBench{}, []Phase{{Duration: 3 * (on + off)}}, Options{Terminals: 4})
			if err := m.SetArrival(ArrivalSpec{Process: ProcessBurst, BaseRate: 1000, BurstOn: on, BurstOff: off}); err != nil {
				t.Fatal(err)
			}
			entries := runCaptured(t, m)
			// The producer polls an idle schedule every millisecond or two,
			// and the last gap of a window may end just past it.
			const slack = 3 * time.Millisecond
			perCycle := make([]int, 3)
			for _, e := range entries {
				at := time.Duration(e.StartUS) * time.Microsecond
				if in := at % (on + off); in > on+slack {
					return fmt.Errorf("transaction started %v into a cycle whose burst lasts %v", in, on)
				}
				c := int(at / (on + off))
				if c < len(perCycle) {
					perCycle[c]++
					continue
				}
				// A start past the phase: the manager must never admit an
				// arrival due after it, but a start can run late. Start and
				// queue wait are truncated to microseconds, so the due time
				// read back from them may be one microsecond high.
				due := at - time.Duration(e.QueueUS)*time.Microsecond
				if due > 3*(on+off) {
					t.Fatalf("arrival due %v admitted after the %v phase", due, 3*(on+off))
				}
				return fmt.Errorf("arrival due %v started %v late, past the %v phase", due, at-due, 3*(on+off))
			}
			for c, n := range perCycle {
				if want := inBurst * on.Seconds(); math.Abs(float64(n)-want) > 0.1*want {
					return fmt.Errorf("burst %d delivered %d transactions, want about %v", c, n, want)
				}
			}
			return nil
		})
	})
}

// TestResponseTimeMatchesTrace is the acceptance check on the product's own
// response time: the collector's digest agrees with the exact percentiles of
// QueueUS + LatencyUS from the same run's trace, and a response is never
// shorter than its service.
func TestResponseTimeMatchesTrace(t *testing.T) {
	var buf bytes.Buffer
	// One worker under Poisson arrivals at two thirds of what it can serve
	// (the stub's 1 ms sleep takes 1.1): transactions queue behind each other.
	m, b := newStubWorkload(t, []Phase{{Duration: 2 * time.Second, Rate: 600, Exponential: true}},
		Options{Terminals: 1, Trace: trace.NewWriter(&buf)})
	b.delay = time.Millisecond
	if err := m.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	entries, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var resp, svc, queue []int64
	for _, e := range entries {
		if e.Status == "ok" {
			resp, svc, queue = append(resp, e.QueueUS+e.LatencyUS), append(svc, e.LatencyUS), append(queue, e.QueueUS)
		}
	}
	if len(resp) < 200 {
		t.Fatalf("only %d committed transactions", len(resp))
	}
	if medianInt64(queue) == 0 {
		t.Fatal("no queue wait: the run does not exercise response time")
	}
	snap := m.Collector().Snapshot()
	if snap.Response.Count != int64(len(resp)) {
		t.Fatalf("collector holds %d responses, trace %d", snap.Response.Count, len(resp))
	}
	if snap.Response.P50 < snap.Latency.P50 {
		t.Fatalf("response p50 %v below service p50 %v", snap.Response.P50, snap.Latency.P50)
	}
	sortInt64s(resp)
	for _, pc := range []struct {
		p   int
		got time.Duration
	}{{50, snap.Response.P50}, {95, snap.Response.P95}, {99, snap.Response.P99}} {
		want := float64(resp[len(resp)*pc.p/100])
		if got := float64(pc.got.Microseconds()); math.Abs(got-want) > 0.10*want {
			t.Errorf("response p%d: collector %v us, trace %v us", pc.p, got, want)
		}
	}
	t.Logf("service p50 %d us, queue p50 %d us, response p50 %v", medianInt64(svc), medianInt64(queue), snap.Response.P50)
}

// TestMixtureStep measures the paper's second dynamic control the way the
// rate step is measured: after a live SetMix, how long until the mixture
// delivered over a sliding window of 500 transactions is within 0.02 of the
// target. The mixture is sampled when a worker takes an arrival, so the step
// costs the window and nothing else.
func TestMixtureStep(t *testing.T) {
	withRetries(t, func() error {
		const rate, window = 10000.0, 500
		m := newNopManager(t, twoNopBench{}, []Phase{{Duration: time.Second, Rate: rate}}, Options{Terminals: 2})
		var switched atomic.Int64
		go func() {
			time.Sleep(400 * time.Millisecond)
			switched.Store(m.elapsed().Microseconds())
			m.SetMix([]float64{0, 100})
		}()
		entries := runCaptured(t, m)
		switchedUS := switched.Load()
		first := sort.Search(len(entries), func(i int) bool { return entries[i].StartUS >= switchedUS })
		if first < window || len(entries)-first < 2*window {
			return fmt.Errorf("switch at attempt %d of %d leaves no room for the window", first, len(entries))
		}
		inWindow := 0 // transactions of the new type among the last `window`
		for i, e := range entries {
			if e.Type == "B" {
				inWindow++
			}
			if i >= window && entries[i-window].Type == "B" {
				inWindow--
			}
			if i >= first && float64(inWindow) >= 0.98*window {
				took := time.Duration(e.StartUS-switchedUS) * time.Microsecond
				fill := time.Duration(window / rate * float64(time.Second))
				t.Logf("delivered mixture within 0.02 of the target %v after SetMix (the window alone fills in %v)", took, fill)
				if took > fill+fill/2 {
					return fmt.Errorf("mixture step took %v, want about %v", took, fill)
				}
				return nil
			}
		}
		return fmt.Errorf("delivered mixture never reached the target")
	})
}

// TestNoAttemptBeforeFirstPhase is the regression test for workers starting
// ahead of the first phase: no attempt may report phase -1.
func TestNoAttemptBeforeFirstPhase(t *testing.T) {
	for run := 0; run < 40; run++ {
		m := newNopManager(t, nopBench{}, []Phase{{Duration: 2 * time.Millisecond}}, Options{Terminals: 4})
		for _, e := range runCaptured(t, m) {
			if e.Phase < 0 {
				t.Fatalf("run %d: attempt at %d us reports phase %d", run, e.StartUS, e.Phase)
			}
		}
	}
}
