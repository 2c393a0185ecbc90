package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
)

// bodySpan is one call of a wrapped Procedure.Fn, in ns since the tracer's
// epoch.
type bodySpan struct{ t0, t1 int64 }

// connSlot collects the body spans of one connection, which is to say of one
// worker: core opens one connection per terminal.
type connSlot struct{ spans []bodySpan }

// tracer decorates a Benchmark so that every Procedure.Fn records a
// bench.proc_body span. It sees a connection where the AttemptObserver sees
// a worker ordinal; link pairs the two afterwards from the times alone.
type tracer struct {
	core.Benchmark
	epoch time.Time
	slots sync.Map // *dbdriver.Conn -> *connSlot
}

func newTracer(b core.Benchmark) *tracer { return &tracer{Benchmark: b, epoch: time.Now()} }

func (t *tracer) slot(conn *dbdriver.Conn) *connSlot {
	if s, ok := t.slots.Load(conn); ok {
		return s.(*connSlot)
	}
	s, _ := t.slots.LoadOrStore(conn, &connSlot{})
	return s.(*connSlot)
}

// Procedures wraps the benchmark's transaction bodies.
func (t *tracer) Procedures() []core.Procedure {
	procs := t.Benchmark.Procedures()
	for i := range procs {
		fn := procs[i].Fn
		procs[i].Fn = func(conn *dbdriver.Conn, rng *rand.Rand) error {
			s := t.slot(conn)
			t0 := int64(time.Since(t.epoch))
			err := fn(conn, rng)
			s.spans = append(s.spans, bodySpan{t0, int64(time.Since(t.epoch))})
			return err
		}
	}
	return procs
}

// attempt is one observed transaction with the body spans it contains:
// spans[b0:b1] of its worker's connection.
type attempt struct {
	sample
	b0, b1 int
}

// nest assigns body spans to the attempts of one worker, both in time order:
// a body belongs to the first attempt observed after it ended. It fails when
// the spans cannot have come from this worker: an attempt without a body, a
// body that began before the previous attempt was observed, or bodies left
// over.
func nest(ws []sample, spans []bodySpan) ([]attempt, bool) {
	out := make([]attempt, len(ws))
	j := 0
	var prevObs int64 = math.MinInt64
	for i, s := range ws {
		b0 := j
		for j < len(spans) && spans[j].t1 <= s.obsNS {
			if spans[j].t0 < prevObs {
				return nil, false
			}
			j++
		}
		if j == b0 {
			return nil, false
		}
		out[i] = attempt{sample: s, b0: b0, b1: j}
		prevObs = s.obsNS
	}
	return out, j == len(spans)
}

// linked is one worker's attempts with the connection they ran on.
type linked struct {
	attempts []attempt
	spans    []bodySpan
}

// link pairs every worker with the one connection whose body spans nest in
// its attempts.
func (t *tracer) link(perWorker [][]sample) ([]linked, error) {
	var slots []*connSlot
	t.slots.Range(func(_, v any) bool {
		slots = append(slots, v.(*connSlot))
		return true
	})
	out := make([]linked, len(perWorker))
	used := make([]bool, len(slots))
	for w, ws := range perWorker {
		found := false
		for i, s := range slots {
			if used[i] {
				continue
			}
			if as, ok := nest(ws, s.spans); ok {
				out[w], used[i], found = linked{as, s.spans}, true, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("trace: no connection's body spans nest in worker %d's %d attempts", w, len(ws))
		}
	}
	return out, nil
}

// runEpochNS places the Manager's run start on the tracer clock. Every
// attempt gives an upper bound, observed-at minus its truncated end offset;
// the smallest is tight to the few tens of ns between an attempt's end and
// the observer call.
func runEpochNS(perWorker [][]sample) int64 {
	best := int64(math.MaxInt64)
	for _, ws := range perWorker {
		for _, s := range ws {
			if c := s.obsNS - s.endUS()*1000; c < best {
				best = c
			}
		}
	}
	return best
}

// txnSpans is one transaction of the traced hi window as spans on the tracer
// clock: txn (due to end) contains core.queue_wait (due to start) and
// core.attempt (start to end), which contains the bench.proc_body spans.
type txnSpans struct {
	due, start, end int64
	bodies          []bodySpan
}

// check is the reconciliation the span file must satisfy: children inside
// their parent, in order and disjoint. Then queue_wait + attempt = txn and
// proc_body + attempt self = attempt hold with nothing counted twice and no
// self time negative.
func (x txnSpans) check() error {
	if x.due > x.start || x.start > x.end {
		return fmt.Errorf("trace: due %d, start %d, end %d out of order", x.due, x.start, x.end)
	}
	at := x.start
	for _, b := range x.bodies {
		if b.t0 < at || b.t1 < b.t0 {
			return fmt.Errorf("trace: proc_body [%d,%d] overlaps its sibling or leaves core.attempt [%d,%d]", b.t0, b.t1, x.start, x.end)
		}
		at = b.t1
	}
	if at > x.end {
		return fmt.Errorf("trace: proc_body ends at %d after core.attempt at %d", at, x.end)
	}
	return nil
}

// spansOf builds the spans of one linked attempt. core reports the start
// truncated to a microsecond; the span starts at the middle of that
// microsecond, or at the first body if that comes sooner, and lagUS is how
// long after its due time the attempt started.
func spansOf(a attempt, spans []bodySpan, epochNS int64, lagUS float64) txnSpans {
	x := txnSpans{start: epochNS + a.startUS*1000 + 500, end: a.obsNS, bodies: spans[a.b0:a.b1]}
	if first := x.bodies[0].t0; first < x.start {
		x.start = first
	}
	x.due = x.start - int64(lagUS*1000)
	return x
}

// spanFileCap bounds the span file: a million transactions a run would be
// 150 MB of text that nothing reads.
const spanFileCap = 200000

// writeSpans writes the first spanFileCap transactions as tab-separated
// spans (txn id, span name, parent span, start ns, end ns) to a file under
// os.TempDir() and returns its path.
func writeSpans(name string, txns []txnSpans) (string, error) {
	path := filepath.Join(os.TempDir(), "benchpress-spans-"+name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "txn\tspan\tparent\tstart_ns\tend_ns")
	for id, x := range txns {
		if id == spanFileCap {
			break
		}
		fmt.Fprintf(w, "%d\ttxn\t-\t%d\t%d\n", id, x.due, x.end)
		fmt.Fprintf(w, "%d\tcore.queue_wait\ttxn\t%d\t%d\n", id, x.due, x.start)
		fmt.Fprintf(w, "%d\tcore.attempt\ttxn\t%d\t%d\n", id, x.start, x.end)
		for _, b := range x.bodies {
			fmt.Fprintf(w, "%d\tbench.proc_body\tcore.attempt\t%d\t%d\n", id, b.t0, b.t1)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
