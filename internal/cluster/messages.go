package cluster

import (
	"benchpress/internal/stats"
)

// Hello is the worker's first frame on the control wire: identity plus the
// benchmark metadata the coordinator needs to merge stats (the type list
// fixes per-type indexes for every later delta). WorkerID is zero on first
// contact; a reconnecting worker presents its assigned id to resume its
// registration instead of creating a new one.
type Hello struct {
	Proto     uint64
	WorkerID  uint64
	Name      string
	Benchmark string
	DB        string
	Types     []string
}

func (h Hello) encode() []byte {
	var e enc
	e.uvarint(h.Proto)
	e.uvarint(h.WorkerID)
	e.str(h.Name)
	e.str(h.Benchmark)
	e.str(h.DB)
	e.strs(h.Types)
	return e.b
}

func decodeHello(p []byte) (Hello, error) {
	d := dec{b: p}
	h := Hello{
		Proto:     d.uvarint(),
		WorkerID:  d.uvarint(),
		Name:      d.str(),
		Benchmark: d.str(),
		DB:        d.str(),
		Types:     d.strs(),
	}
	return h, d.finish()
}

// Welcome answers a Hello: the worker's assigned id, the cadences the
// coordinator wants it to run at (stat flush deadline, heartbeat interval),
// in microseconds, and the Seq of the last StatsUpdate it applied for this
// id (0 for a new worker). A resuming worker re-sends every update after
// LastSeq: those went into a connection the coordinator had already dropped.
type Welcome struct {
	WorkerID    uint64
	FlushUS     int64
	HeartbeatUS int64
	LastSeq     uint64
}

func (w Welcome) encode() []byte {
	var e enc
	e.uvarint(w.WorkerID)
	e.varint(w.FlushUS)
	e.varint(w.HeartbeatUS)
	e.uvarint(w.LastSeq)
	return e.b
}

func decodeWelcome(p []byte) (Welcome, error) {
	d := dec{b: p}
	w := Welcome{
		WorkerID:    d.uvarint(),
		FlushUS:     d.varint(),
		HeartbeatUS: d.varint(),
		LastSeq:     d.uvarint(),
	}
	return w, d.finish()
}

// Assign fans the cluster's dynamic controls out to one worker: its rate
// share (0 = unlimited), the mixture weights (nil = benchmark default), and
// the pause gate. Gen is a monotonic assignment generation; a worker ignores
// frames older than the newest it has applied, so reordering across a
// reconnect cannot roll controls back.
type Assign struct {
	Gen    uint64
	Rate   float64
	Paused bool
	Mix    []float64
}

func (a Assign) encode() []byte {
	var e enc
	e.uvarint(a.Gen)
	e.float64Val(a.Rate)
	e.boolVal(a.Paused)
	e.float64s(a.Mix)
	return e.b
}

func decodeAssign(p []byte) (Assign, error) {
	d := dec{b: p}
	a := Assign{
		Gen:    d.uvarint(),
		Rate:   d.float64Val(),
		Paused: d.boolVal(),
		Mix:    d.float64sVal(),
	}
	return a, d.finish()
}

// StatsUpdate is one batched, coalesced stat flush: the stats.Delta of the
// worker's collector since the previous update, per type with both its
// service-time and response-time histograms. Deltas are lossless — the
// merged feed's totals equal the sum of the workers' exactly once the update
// lands, which is what makes the merged committed count an exact sum rather
// than an estimate.
type StatsUpdate struct {
	Seq uint64
	stats.Delta
}

func (u StatsUpdate) encode() []byte {
	var e enc
	e.uvarint(u.Seq)
	e.varint(u.Committed)
	e.varint(u.Aborted)
	e.varint(u.Errors)
	e.varint(u.Retries)
	e.uvarint(uint64(len(u.Types)))
	for _, t := range u.Types {
		e.uvarint(uint64(t.Index))
		appendHist(&e, t.Lat)
		appendHist(&e, t.Resp)
	}
	return e.b
}

// appendHist encodes one histogram delta: sum, cumulative maximum, then the
// sparse bucket counts.
func appendHist(e *enc, hs stats.HistSnapshot) {
	e.varint(hs.SumUS)
	e.varint(hs.MaxUS)
	appendSparseBuckets(e, hs.Counts)
}

func decodeHist(d *dec) stats.HistSnapshot {
	return stats.HistSnapshot{SumUS: d.varint(), MaxUS: d.varint(), Counts: decodeSparseBuckets(d, 0, stats.NumBuckets)}
}

// maxTypes bounds the per-update type count; no benchmark has more than a
// few dozen procedures, so anything past this is a corrupt frame.
const maxTypes = 1 << 10

func decodeStatsUpdate(p []byte) (StatsUpdate, error) {
	d := dec{b: p}
	u := StatsUpdate{Seq: d.uvarint()}
	u.Committed = d.varint()
	u.Aborted = d.varint()
	u.Errors = d.varint()
	u.Retries = d.varint()
	n := d.count(7) // index, then sum, max and bucket count per histogram
	if n > maxTypes {
		d.fail()
	}
	for i := 0; i < n && d.err == nil; i++ {
		t := stats.TypeDelta{Index: int(d.uvarint()), Lat: decodeHist(&d), Resp: decodeHist(&d)}
		if t.Index >= maxTypes {
			d.fail()
			break
		}
		u.Types = append(u.Types, t)
	}
	return u, d.finish()
}

// Heartbeat carries liveness plus the worker's cumulative outcome totals, so
// the coordinator can cross-check its delta-accumulated view and surface
// drift (there should never be any) instead of silently diverging.
type Heartbeat struct {
	Committed int64
	Aborted   int64
	Errors    int64
	Retries   int64
}

func (h Heartbeat) encode() []byte {
	var e enc
	e.varint(h.Committed)
	e.varint(h.Aborted)
	e.varint(h.Errors)
	e.varint(h.Retries)
	return e.b
}

func decodeHeartbeat(p []byte) (Heartbeat, error) {
	d := dec{b: p}
	h := Heartbeat{
		Committed: d.varint(),
		Aborted:   d.varint(),
		Errors:    d.varint(),
		Retries:   d.varint(),
	}
	return h, d.finish()
}

// Bye announces a graceful shutdown with a human-readable reason.
type Bye struct{ Reason string }

func (b Bye) encode() []byte {
	var e enc
	e.str(b.Reason)
	return e.b
}

func decodeBye(p []byte) (Bye, error) {
	d := dec{b: p}
	b := Bye{Reason: d.str()}
	return b, d.finish()
}
