// Package trace records one line per transaction attempt (OLTP-Bench's
// trace.txt) and analyzes recorded traces: per-phase rollups, latency
// percentiles, rate conformance, and throughput jitter.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Entry is one transaction attempt.
type Entry struct {
	// StartUS is the offset, in microseconds since the run began, at which
	// a worker started serving the transaction.
	StartUS int64
	// LatencyUS is the service time in microseconds: start to end,
	// including retried attempts and their back-off.
	LatencyUS int64
	// Type is the transaction type name.
	Type string
	// Phase is the phase ordinal the attempt ran in.
	Phase int
	// Status is "ok", "abort", or "error".
	Status string
	// Worker is the worker ordinal.
	Worker int
	// Params is an optional sampled parameter digest (see FormatParams):
	// the arguments of the attempt's first statement, rendered as one
	// whitespace-free field. Empty on unsampled attempts; written as an
	// optional seventh column so old traces stay readable.
	Params string
	// QueueUS is how long the arrival waited for a worker: service start
	// minus the time the arrival was due, in microseconds. The transaction
	// was due at StartUS - QueueUS and its response time is QueueUS +
	// LatencyUS. Zero in unlimited phases, which have no arrivals. Written
	// as an optional eighth column after Params ("-" when there are none).
	QueueUS int64
}

// maxParamDigest caps the rendered parameter digest so a pathological
// string argument cannot bloat the trace line.
const maxParamDigest = 96

// FormatParams renders statement arguments as a compact single-field digest:
// values joined by ',', whitespace replaced, truncated at maxParamDigest
// bytes. The digest is what capture mode persists per sampled attempt.
func FormatParams(args []any) string {
	if len(args) == 0 {
		return ""
	}
	var b strings.Builder
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		var s string
		switch v := a.(type) {
		case string:
			s = v
		case int:
			s = strconv.Itoa(v)
		case int64:
			s = strconv.FormatInt(v, 10)
		case float64:
			s = strconv.FormatFloat(v, 'g', -1, 64)
		default:
			s = fmt.Sprint(v)
		}
		for _, r := range s {
			if r == ' ' || r == '\t' || r == '\n' || r == '\r' {
				r = '_'
			}
			b.WriteRune(r)
			if b.Len() >= maxParamDigest {
				return b.String()
			}
		}
	}
	return b.String()
}

// Writer appends trace entries to an io.Writer, safely from many workers.
type Writer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	n   int64
	out io.Writer
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), out: w}
}

// noParams stands for an empty parameter digest when a later column follows.
const noParams = "-"

// Add appends one entry. Entries with a parameter digest carry it as a
// seventh column (the digest is whitespace-free by construction), entries
// with a queue wait carry that as an eighth.
func (w *Writer) Add(e Entry) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n++
	fmt.Fprintf(w.bw, "%d %d %s %d %s %d", e.StartUS, e.LatencyUS, e.Type, e.Phase, e.Status, e.Worker)
	switch {
	case e.QueueUS != 0 && e.Params == "":
		fmt.Fprintf(w.bw, " %s %d", noParams, e.QueueUS)
	case e.QueueUS != 0:
		fmt.Fprintf(w.bw, " %s %d", e.Params, e.QueueUS)
	case e.Params != "":
		fmt.Fprintf(w.bw, " %s", e.Params)
	}
	// A bufio.Writer keeps its first error and returns it from every later
	// write, so the last one reports them all.
	return w.bw.WriteByte('\n')
}

// Len returns the number of entries written.
func (w *Writer) Len() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Flush drains buffered output.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bw.Flush()
}

// Read parses a trace stream.
func Read(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) < 6 || len(f) > 8 {
			return nil, fmt.Errorf("trace: line %d: want 6 to 8 fields, got %d", line, len(f))
		}
		start, err1 := strconv.ParseInt(f[0], 10, 64)
		lat, err2 := strconv.ParseInt(f[1], 10, 64)
		phase, err3 := strconv.Atoi(f[3])
		worker, err4 := strconv.Atoi(f[5])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("trace: line %d: malformed", line)
		}
		e := Entry{
			StartUS: start, LatencyUS: lat, Type: f[2],
			Phase: phase, Status: f[4], Worker: worker,
		}
		if len(f) >= 7 && f[6] != noParams {
			e.Params = f[6]
		}
		if len(f) == 8 {
			if e.QueueUS, err1 = strconv.ParseInt(f[7], 10, 64); err1 != nil {
				return nil, fmt.Errorf("trace: line %d: malformed", line)
			}
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// PhaseReport summarizes one phase of a trace.
type PhaseReport struct {
	Phase      int
	Committed  int
	Aborted    int
	Errors     int
	Duration   time.Duration
	TPS        float64
	MeanUS     float64
	P50US      int64
	P95US      int64
	P99US      int64
	TypeCounts map[string]int
}

// Report is a full trace analysis.
type Report struct {
	Total     int
	Committed int
	Phases    []PhaseReport
	// ThroughputSeries is committed transactions per second of the run.
	ThroughputSeries []int
	// JitterCV is the coefficient of variation of the per-second series, a
	// dimensionless measure of throughput oscillation (the tunnel-test
	// metric in the demo's takeaways).
	JitterCV float64
}

// Analyze computes a full report from entries.
func Analyze(entries []Entry) Report {
	rep := Report{Total: len(entries)}
	byPhase := map[int][]Entry{}
	var maxSec int64 = -1
	for _, e := range entries {
		byPhase[e.Phase] = append(byPhase[e.Phase], e)
		if e.Status == "ok" {
			rep.Committed++
			if s := e.StartUS / 1e6; s > maxSec {
				maxSec = s
			}
		}
	}
	if maxSec >= 0 {
		rep.ThroughputSeries = make([]int, maxSec+1)
		for _, e := range entries {
			if e.Status == "ok" {
				rep.ThroughputSeries[e.StartUS/1e6]++
			}
		}
		rep.JitterCV = JitterCV(rep.ThroughputSeries)
	}
	var phases []int
	for p := range byPhase {
		phases = append(phases, p)
	}
	sort.Ints(phases)
	for _, p := range phases {
		rep.Phases = append(rep.Phases, analyzePhase(p, byPhase[p]))
	}
	return rep
}

func analyzePhase(phase int, entries []Entry) PhaseReport {
	pr := PhaseReport{Phase: phase, TypeCounts: map[string]int{}}
	var lats []int64
	var sum float64
	var minStart, maxEnd int64 = math.MaxInt64, 0
	for _, e := range entries {
		switch e.Status {
		case "ok":
			pr.Committed++
			lats = append(lats, e.LatencyUS)
			sum += float64(e.LatencyUS)
			pr.TypeCounts[e.Type]++
		case "abort":
			pr.Aborted++
		default:
			pr.Errors++
		}
		if e.StartUS < minStart {
			minStart = e.StartUS
		}
		if end := e.StartUS + e.LatencyUS; end > maxEnd {
			maxEnd = end
		}
	}
	if maxEnd > minStart {
		pr.Duration = time.Duration(maxEnd-minStart) * time.Microsecond
		pr.TPS = float64(pr.Committed) / pr.Duration.Seconds()
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pr.MeanUS = sum / float64(len(lats))
		pr.P50US = lats[len(lats)*50/100]
		pr.P95US = lats[len(lats)*95/100]
		pr.P99US = lats[len(lats)*99/100]
	}
	return pr
}

// JitterCV computes the coefficient of variation (stddev/mean) of a
// throughput series. Zero means a perfectly flat series.
func JitterCV(series []int) float64 {
	if len(series) == 0 {
		return 0
	}
	var sum float64
	for _, v := range series {
		sum += float64(v)
	}
	mean := sum / float64(len(series))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range series {
		d := float64(v) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(series))) / mean
}

// Conformance compares a measured per-second series against a target rate:
// the mean relative deviation of seconds that should have been at target.
func Conformance(series []int, target float64) float64 {
	if len(series) == 0 || target <= 0 {
		return 0
	}
	var dev float64
	for _, v := range series {
		dev += math.Abs(float64(v)-target) / target
	}
	return dev / float64(len(series))
}

// RateSchedule reconstructs the committed-throughput curve of a recorded
// trace as one rate per window (Figure 1 shows trace.txt flowing back into
// the Workload Manager: a recorded run can be replayed as a rate profile
// against another system).
func RateSchedule(entries []Entry, window time.Duration) []float64 {
	if window <= 0 {
		window = time.Second
	}
	var maxIdx int64 = -1
	winUS := window.Microseconds()
	for _, e := range entries {
		if e.Status == "ok" && e.StartUS/winUS > maxIdx {
			maxIdx = e.StartUS / winUS
		}
	}
	if maxIdx < 0 {
		return nil
	}
	counts := make([]int, maxIdx+1)
	for _, e := range entries {
		if e.Status == "ok" {
			counts[e.StartUS/winUS]++
		}
	}
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = float64(c) / window.Seconds()
	}
	return rates
}
