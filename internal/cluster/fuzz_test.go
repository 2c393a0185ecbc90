package cluster

import (
	"bytes"
	"testing"

	"benchpress/internal/sqlval"
	"benchpress/internal/stats"
)

// decodeAny routes a frame through the same typed decoders the coordinator,
// worker, and engine server use, so the fuzzer exercises every payload
// parser behind every frame type.
func decodeAny(typ byte, payload []byte) {
	switch typ {
	case FrameHello:
		_, _ = decodeHello(payload)
	case FrameWelcome:
		_, _ = decodeWelcome(payload)
	case FrameAssign:
		_, _ = decodeAssign(payload)
	case FrameStats:
		_, _ = decodeStatsUpdate(payload)
	case FrameHeartbeat:
		_, _ = decodeHeartbeat(payload)
	case FrameBye:
		_, _ = decodeBye(payload)
	case FrameEngineExec:
		_, _ = decodeEngineExec(payload)
	case FrameEngineResult:
		_, _ = decodeEngineResult(payload)
	case FrameEngineErr:
		_, _ = decodeEngineErr(payload)
	case FrameEngineWelcome:
		_, _ = decodeEngineWelcome(payload)
	default:
		// Unknown types carry no payload contract; nothing to decode.
	}
}

// seedFrames builds one valid instance of every frame type, giving the
// fuzzer a structurally correct corpus to mutate from.
func seedFrames() [][]byte {
	buckets := make([]int64, 256)
	buckets[10] = 3
	buckets[200] = 1
	frames := [][]byte{
		AppendFrame(nil, FrameHello, Hello{Proto: ProtoVersion, WorkerID: 1, Name: "w", Benchmark: "ycsb", DB: "gomvcc", Types: []string{"A", "B"}}.encode()),
		AppendFrame(nil, FrameWelcome, Welcome{WorkerID: 1, FlushUS: 250000, HeartbeatUS: 500000}.encode()),
		AppendFrame(nil, FrameAssign, Assign{Gen: 3, Rate: 99.5, Paused: false, Mix: []float64{1, 2}}.encode()),
		AppendFrame(nil, FrameStats, StatsUpdate{Seq: 1, Delta: stats.Delta{Committed: 4, Types: []stats.TypeDelta{{
			Index: 1,
			Lat:   stats.HistSnapshot{Counts: buckets, SumUS: 100, MaxUS: 60},
			Resp:  stats.HistSnapshot{Counts: buckets, SumUS: 180, MaxUS: 90},
		}}}}.encode()),
		AppendFrame(nil, FrameHeartbeat, Heartbeat{Committed: 4}.encode()),
		AppendFrame(nil, FrameBye, Bye{Reason: "bye"}.encode()),
		AppendFrame(nil, FrameEngineExec, engineExec{Query: true, SQL: "SELECT 1", Args: []sqlval.Value{sqlval.NewInt(1), sqlval.Null()}}.encode()),
		AppendFrame(nil, FrameEngineErr, engineErr{Class: errClassDeadlock, Message: "deadlock"}.encode()),
		AppendFrame(nil, FrameEngineWelcome, engineWelcome{Name: "gomvcc", Dialect: "postgres"}.encode()),
	}
	return frames
}

// FuzzReadFrame is the wire-robustness gate: arbitrary bytes — including
// mutations of every valid frame type — must never panic the frame reader or
// any payload decoder, no matter how they are truncated or corrupted.
func FuzzReadFrame(f *testing.F) {
	var stream []byte
	for _, fr := range seedFrames() {
		f.Add(fr)
		// Truncation seeds: a frame cut mid-payload and cut mid-header.
		if len(fr) > 7 {
			f.Add(fr[:len(fr)-3])
			f.Add(fr[:2])
		}
		stream = append(stream, fr...)
	}
	f.Add(stream)                                     // several frames back to back
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x04, 0x00}) // absurd length prefix
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		// Drain the whole input as a frame stream, decoding each payload the
		// way the real read loops do. Bounded by input length: every
		// iteration either consumes bytes or errors out.
		for {
			typ, payload, err := ReadFrame(r)
			if err != nil {
				return
			}
			decodeAny(typ, payload)
		}
	})
}

// FuzzWireRoundTrip checks that a stats update survives the wire: the
// decoded counters, type index and both histograms of the type — service
// time and response time, each with sum, maximum and every bucket — equal
// what was encoded. Each histogram's buckets are fuzzed as (index, count)
// byte pairs.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(4), int64(1), 3, int64(100), int64(60), []byte{10, 3, 200, 1}, int64(250), int64(90), []byte{12, 2, 201, 1})
	f.Add(uint64(9), int64(0), int64(-2), 0, int64(0), int64(0), []byte{}, int64(-5), int64(0), []byte{255, 255})
	f.Fuzz(func(t *testing.T, seq uint64, committed, aborted int64, index int,
		latSum, latMax int64, latBuckets []byte, respSum, respMax int64, respBuckets []byte) {
		hist := func(sum, max int64, pairs []byte) stats.HistSnapshot {
			hs := stats.HistSnapshot{Counts: make([]int64, stats.NumBuckets), SumUS: sum, MaxUS: max}
			for i := 0; i+1 < len(pairs); i += 2 {
				hs.Counts[int(pairs[i])*7%stats.NumBuckets] += int64(pairs[i+1])
			}
			return hs
		}
		u := StatsUpdate{Seq: seq, Delta: stats.Delta{Committed: committed, Aborted: aborted, Types: []stats.TypeDelta{{
			Index: index & (maxTypes - 1),
			Lat:   hist(latSum, latMax, latBuckets),
			Resp:  hist(respSum, respMax, respBuckets),
		}}}}
		got, err := decodeStatsUpdate(u.encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != u.Seq || got.Committed != u.Committed || got.Aborted != u.Aborted || len(got.Types) != 1 {
			t.Fatalf("update %+v decoded as %+v", u, got)
		}
		gt, wt := got.Types[0], u.Types[0]
		if gt.Index != wt.Index {
			t.Fatalf("type index %d decoded as %d", wt.Index, gt.Index)
		}
		for _, h := range []struct {
			name      string
			got, want stats.HistSnapshot
		}{{"latency", gt.Lat, wt.Lat}, {"response", gt.Resp, wt.Resp}} {
			if h.got.SumUS != h.want.SumUS || h.got.MaxUS != h.want.MaxUS {
				t.Fatalf("%s sum/max %d/%d decoded as %d/%d", h.name, h.want.SumUS, h.want.MaxUS, h.got.SumUS, h.got.MaxUS)
			}
			// The sparse decode allocates up to the highest occupied bucket.
			for b, want := range h.want.Counts {
				var have int64
				if b < len(h.got.Counts) {
					have = h.got.Counts[b]
				}
				if have != want {
					t.Fatalf("%s bucket %d: got %d want %d", h.name, b, have, want)
				}
			}
		}
	})
}
