package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	entries := []Entry{
		{StartUS: 0, LatencyUS: 1500, Type: "NewOrder", Phase: 0, Status: "ok", Worker: 1},
		{StartUS: 2000, LatencyUS: 900, Type: "Payment", Phase: 0, Status: "ok", Worker: 2},
		{StartUS: 1_100_000, LatencyUS: 100, Type: "NewOrder", Phase: 1, Status: "abort", Worker: 1},
		{StartUS: 1_200_000, LatencyUS: 50, Type: "Delivery", Phase: 1, Status: "error", Worker: 3},
		// The optional columns: parameters alone, queue wait alone, both.
		{StartUS: 1_300_000, LatencyUS: 70, Type: "Payment", Phase: 1, Status: "ok", Worker: 2, Params: "7,abc"},
		{StartUS: 1_400_000, LatencyUS: 80, Type: "Payment", Phase: 1, Status: "ok", Worker: 2, QueueUS: 35},
		{StartUS: 1_500_000, LatencyUS: 90, Type: "Payment", Phase: 1, Status: "ok", Worker: 2, Params: "9", QueueUS: 1200},
	}
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != int64(len(entries)) {
		t.Fatalf("len = %d", w.Len())
	}
	w.Flush()
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("read %d entries", len(got))
	}
	for i := range got {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
}

func TestReadSkipsCommentsAndBlank(t *testing.T) {
	in := "# header\n\n0 100 A 0 ok 0\n"
	got, err := Read(strings.NewReader(in))
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v err %v", got, err)
	}
}

func TestReadMalformed(t *testing.T) {
	for _, in := range []string{"1 2 3\n", "x 100 A 0 ok 0\n", "0 100 A 0 ok 0 - x\n", "0 100 A 0 ok 0 - 5 6\n"} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("malformed %q accepted", in)
		}
	}
}

func TestAnalyze(t *testing.T) {
	var entries []Entry
	// Phase 0: 100 tx over ~1s at 1ms latency; phase 1: 50 tx with aborts.
	for i := 0; i < 100; i++ {
		entries = append(entries, Entry{
			StartUS: int64(i) * 10_000, LatencyUS: 1000, Type: "A", Phase: 0, Status: "ok",
		})
	}
	for i := 0; i < 50; i++ {
		st := "ok"
		if i%10 == 0 {
			st = "abort"
		}
		entries = append(entries, Entry{
			StartUS: 1_000_000 + int64(i)*10_000, LatencyUS: 2000, Type: "B", Phase: 1, Status: st,
		})
	}
	rep := Analyze(entries)
	if rep.Total != 150 || rep.Committed != 145 {
		t.Fatalf("total=%d committed=%d", rep.Total, rep.Committed)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("phases = %d", len(rep.Phases))
	}
	p0 := rep.Phases[0]
	if p0.Committed != 100 || p0.Aborted != 0 {
		t.Fatalf("p0 = %+v", p0)
	}
	if p0.P50US != 1000 || p0.MeanUS != 1000 {
		t.Fatalf("p0 latency = %+v", p0)
	}
	if p0.TPS < 80 || p0.TPS > 120 {
		t.Fatalf("p0 tps = %v", p0.TPS)
	}
	p1 := rep.Phases[1]
	if p1.Aborted != 5 || p1.TypeCounts["B"] != 45 {
		t.Fatalf("p1 = %+v", p1)
	}
	if len(rep.ThroughputSeries) < 2 {
		t.Fatalf("series = %v", rep.ThroughputSeries)
	}
}

func TestJitterCV(t *testing.T) {
	if cv := JitterCV([]int{100, 100, 100}); cv != 0 {
		t.Fatalf("flat series cv = %v", cv)
	}
	cv := JitterCV([]int{0, 200, 0, 200})
	if math.Abs(cv-1.0) > 1e-9 {
		t.Fatalf("oscillating cv = %v, want 1.0", cv)
	}
	if JitterCV(nil) != 0 || JitterCV([]int{0, 0}) != 0 {
		t.Fatal("degenerate series")
	}
}

func TestConformance(t *testing.T) {
	if c := Conformance([]int{100, 100}, 100); c != 0 {
		t.Fatalf("perfect conformance = %v", c)
	}
	c := Conformance([]int{90, 110}, 100)
	if math.Abs(c-0.1) > 1e-9 {
		t.Fatalf("conformance = %v, want 0.1", c)
	}
	if Conformance(nil, 100) != 0 || Conformance([]int{5}, 0) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestRateSchedule(t *testing.T) {
	var entries []Entry
	// 100 tps for one second, then 50 tps, with aborts interleaved.
	for i := 0; i < 100; i++ {
		entries = append(entries, Entry{StartUS: int64(i) * 10_000, Status: "ok"})
	}
	for i := 0; i < 50; i++ {
		entries = append(entries, Entry{StartUS: 1_000_000 + int64(i)*20_000, Status: "ok"})
		entries = append(entries, Entry{StartUS: 1_000_000 + int64(i)*20_000, Status: "abort"})
	}
	rates := RateSchedule(entries, time.Second)
	if len(rates) != 2 || rates[0] != 100 || rates[1] != 50 {
		t.Fatalf("rates = %v", rates)
	}
	if RateSchedule(nil, time.Second) != nil {
		t.Fatal("empty trace should yield nil schedule")
	}
	// Half-second windows double the resolution.
	rates = RateSchedule(entries, 500*time.Millisecond)
	if len(rates) != 4 || rates[0] != 100 {
		t.Fatalf("half-second rates = %v", rates)
	}
}
