// Package wal implements a write-ahead log with emulated durability cost.
//
// The engine substitutes this for a real disk fsync path: commit records are
// encoded and buffered, and the configured sync policy determines how long a
// committing transaction waits. SyncGroup reproduces group commit - many
// concurrent committers share one flush - which is the dominant
// throughput/latency trade-off the BenchPress demo surfaces when a DBMS
// "struggles at maintaining the rate".
//
// SyncGroup is pipelined: commits accumulate in the current generation, and
// sealing a generation immediately opens the next one, so the next batch
// fills while the previous one is being written ("fsynced"). Generations
// write in seal order - each generation's writer waits for its predecessor's
// verdict before touching the sink - so the on-disk byte order always equals
// the append sequence order even when flushes overlap with fills.
//
// Generations seal on the first of three triggers. (1) A complete batch: the
// engine announces every writing transaction before it appends its commit
// record (Announce), and takes the announcement back if the record will
// never come (Withdraw). Once a generation holds two or more records and no
// announced writer is still outside the log, nothing else can join the
// batch, so the append (or withdrawal) that makes it complete seals it
// inline and writes it. (2) The configured interval: an append that arrives
// past the deadline seals inline, and the generation's first appender arms a
// backstop so a batch is never stranded — the interval is the hard cap on
// batching delay, so a lone commit always pays it, which is what makes a 1ms
// goserial feel different from a 200µs gomvcc. (3) Straggler quiescence, the
// fallback for announced writers that are slow to arrive (parked on a lock,
// an interactive session between statements, a long body): once a
// generation holds two or more records and no new append has arrived for a
// few tens of microseconds, the batch seals without them. The leader still
// yields the processor (runtime.Gosched) in two loops: through the last
// leadSpinWindow before the deadline while it is alone, because an idle
// scheduler sleeps in the netpoller, whose timeout is whole milliseconds, so
// a shorter timer fires up to a millisecond late; and through the quiescence
// watch once the batch has company but is not yet complete.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects how a commit waits for durability.
type SyncPolicy uint8

const (
	// SyncNone returns immediately after writing through (no durability
	// wait, no batching).
	SyncNone SyncPolicy = iota
	// SyncAsync persists in the background; commits never wait.
	SyncAsync
	// SyncGroup makes each commit wait for the next group flush,
	// emulating batched fsync.
	SyncGroup
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncAsync:
		return "async"
	case SyncGroup:
		return "group"
	default:
		return "?"
	}
}

// flushGen is one group-commit generation. Everyone whose record entered the
// buffer before the seal waits on done; err carries the sink write verdict
// (set before done is closed), so a failed flush aborts every commit it
// covered instead of falsely acknowledging durability. prev chains sealed
// generations in seal order: a generation's writer waits for its
// predecessor's done before writing, which keeps sink bytes in sequence
// order while the successor generation fills concurrently.
type flushGen struct {
	prev     *flushGen     // predecessor in seal order; nil once completed
	buf      []byte        // sealed bytes, owned by the writer after seal
	sealed   chan struct{} // closed at seal time (under Log.mu)
	grown    chan struct{} // closed when the second record arrives
	done     chan struct{} // closed once err holds the write verdict
	err      error
	count    atomic.Uint32 // records in this generation
	isSealed atomic.Bool   // mirror of sealed, for cheap spin-loop checks
	paced    bool          // a backstop leader is pacing this generation
	maxSeq   uint64        // highest sequence stamped before the seal
}

// Log is a write-ahead log. A nil *Log is valid and performs no work, so
// engines without durability emulation skip the whole path.
type Log struct {
	policy   SyncPolicy
	interval time.Duration
	w        io.Writer

	mu       sync.Mutex
	buf      []byte    // the open generation's frames; SyncNone's one frame
	spare    []byte    // a written generation's buffer, emptied for the next seal
	gen      *flushGen // open generation accumulating appends
	lastSeal time.Time // seal time of the previous generation, guarded by mu
	// failErr is the first sink write error observed. Once set, the log is
	// dead — every subsequent append fails immediately, emulating a crashed
	// device: nothing commits after the crash point.
	failErr error

	stop    chan struct{}
	closed  atomic.Bool
	stopped sync.WaitGroup

	// outside counts announced writers whose commit record is not yet in
	// the log (Announce, Withdraw, AppendCommit).
	outside atomic.Int64
	// quietWait is the straggler watch's quiescence window, strugglerWait
	// outside of tests.
	quietWait time.Duration

	seq     atomic.Uint64
	durable atomic.Uint64 // highest sequence number known written to the sink
	records atomic.Uint64
	flushes atomic.Uint64
	bytes   atomic.Uint64
	seals   [numSealReasons]atomic.Uint64
}

// sealReason names the trigger that sealed a generation.
type sealReason uint8

const (
	sealDeadline sealReason = iota // the interval ran out (or SyncAsync's tick)
	sealComplete                   // two or more records, no announced writer outside
	sealQuiet                      // the straggler watch saw no append for quietWait
	sealFlush                      // Flush or Close
	numSealReasons
)

// Options configures a Log.
type Options struct {
	// Policy is the durability wait mode.
	Policy SyncPolicy
	// GroupInterval is the flush cadence for SyncGroup/SyncAsync.
	// Zero defaults to 200 microseconds.
	GroupInterval time.Duration
	// W receives flushed bytes; nil discards them.
	W io.Writer
	// StartSeq seeds the sequence counter so a log reopened after recovery
	// continues numbering where the surviving prefix left off (ReadRecords
	// requires consecutive sequence numbers across the whole file). Zero
	// starts a fresh log at sequence 1.
	StartSeq uint64
}

// New starts a log with the given options.
func New(opts Options) *Log {
	if opts.GroupInterval <= 0 {
		opts.GroupInterval = 200 * time.Microsecond
	}
	if opts.W == nil {
		opts.W = io.Discard
	}
	l := &Log{
		policy:    opts.Policy,
		interval:  opts.GroupInterval,
		w:         opts.W,
		gen:       newGen(nil),
		stop:      make(chan struct{}),
		quietWait: strugglerWait,
	}
	l.seq.Store(opts.StartSeq)
	l.durable.Store(opts.StartSeq)
	if l.policy == SyncAsync {
		l.stopped.Add(1)
		go func() {
			defer l.stopped.Done()
			l.flusher()
		}()
	}
	return l
}

func newGen(prev *flushGen) *flushGen {
	return &flushGen{
		prev:   prev,
		sealed: make(chan struct{}),
		grown:  make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// strugglerWait is the quiescence window of the straggler watch: once a
// generation has at least two records and no append has arrived for this
// long, the batch seals without the announced writers still outside the log.
// It only needs to exceed the inter-append gap of committers racing into the
// same group (single-digit microseconds); the interval remains the upper
// bound whenever traffic keeps trickling in.
const strugglerWait = 20 * time.Microsecond

// Policy returns the log's sync policy.
func (l *Log) Policy() SyncPolicy {
	if l == nil {
		return SyncNone
	}
	return l.policy
}

// recordMagic guards every frame so that replay can tell a torn or corrupt
// tail from a valid record. A log of an older format fails on its magic.
const recordMagic = 0xB8

// Castagnoli is the CRC-32C table of frame and heap page checksums, which
// hash/crc32 computes with the CPU's CRC instructions where it has them.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxSpare caps the spare: it keeps commit batches' buffers, not bulk loads'.
const maxSpare = 64 << 10

// PayloadHeaderSize is the encoded size of one frame header: magic (1) +
// reserved (3) + sequence (8) + payload length (4) + CRC-32C (4). The crash
// harness uses it to locate payload bytes inside a captured sink image when
// picking kill points that tear specific record kinds.
const PayloadHeaderSize = 20

// Record is one decoded frame.
type Record struct {
	// Seq is the append sequence number (1-based, consecutive).
	Seq uint64
	// Payload is the application bytes handed to AppendRecord.
	Payload []byte
}

// AppendRecord writes one framed, checksummed record and waits for
// durability per the sync policy. It is safe for concurrent use. The
// returned error is the durability verdict: non-nil means the record is not
// known durable and the caller's commit must not be acknowledged. The log
// replays with ReadRecords.
func (l *Log) AppendRecord(payload []byte) error {
	return l.appendRecord(payload, false)
}

// AppendCommit is AppendRecord for the commit record of a writer that
// called Announce: it also uses up that announcement, whatever the verdict.
// The announcement is used up under the same lock that counts the record
// into its generation, so the batch never looks complete while the writer
// is between the two.
func (l *Log) AppendCommit(payload []byte) error {
	return l.appendRecord(payload, true)
}

// Announce tells the log that one more writer will append a commit record
// with AppendCommit. Every announcement must be used up by that append or
// taken back with Withdraw: the count of announced writers outside the log
// is what lets a generation seal the moment its batch is complete, and a
// leaked announcement turns the complete seal off while a surplus
// withdrawal seals batches early.
func (l *Log) Announce() {
	if l != nil {
		l.outside.Add(1)
	}
}

// Withdraw takes back an announcement whose commit record will never be
// appended: the writer aborted, or had nothing to log. If that leaves the
// open generation complete, Withdraw seals and writes it.
func (l *Log) Withdraw() {
	if l == nil || l.outside.Add(-1) > 0 || l.policy != SyncGroup {
		return
	}
	l.mu.Lock()
	g := l.gen
	if g.count.Load() < 2 || l.outside.Load() > 0 {
		l.mu.Unlock()
		return
	}
	l.sealLocked(sealComplete)
	l.mu.Unlock()
	l.complete(g)
}

// Outside returns the number of announced writers whose commit record is
// not yet in the log. It is zero whenever no writing transaction is in
// flight.
func (l *Log) Outside() int64 {
	if l == nil {
		return 0
	}
	return l.outside.Load()
}

// appendRecord is AppendRecord and AppendCommit: announced says whether the
// record uses up an announcement.
func (l *Log) appendRecord(payload []byte, announced bool) error {
	if l == nil {
		return nil
	}
	sum := crc32.Checksum(payload, Castagnoli)
	l.mu.Lock()
	if announced {
		l.outside.Add(-1)
	}
	if _, err := l.enqueueLocked(payload, sum); err != nil || l.policy != SyncGroup {
		l.mu.Unlock()
		return err // SyncNone wrote through; SyncAsync's flusher drains the buffer
	}
	g := l.gen
	n := g.count.Add(1)
	if n == 2 {
		close(g.grown) // wake the backstop leader's straggler watch
	}
	deadline := l.lastSeal.Add(l.interval)
	reason, seal := sealDeadline, !time.Now().Before(deadline)
	if !seal && n >= 2 && l.outside.Load() <= 0 {
		reason, seal = sealComplete, true
	}
	if seal {
		// This append crossed the flush deadline or completed the batch:
		// seal inline and become the generation's writer, with no pacing
		// at all.
		l.sealLocked(reason)
		l.mu.Unlock()
		l.complete(g)
		return g.err
	}
	lead := !g.paced
	if lead {
		g.paced = true
	}
	l.mu.Unlock()

	if lead {
		return l.lead(g, deadline)
	}
	// Close seals and completes the open generation and every sealed one
	// has a writer, so done always closes; only its verdict may acknowledge
	// the record.
	<-g.done
	return g.err
}

// AppendRecordAsync writes one framed record like AppendRecord but never
// waits for a flush: under SyncGroup and SyncAsync the bytes join the open
// generation's buffer and ride whichever flush seals it. It returns the
// record's sequence number (its LSN). The caller buys durability later by
// awaiting a subsequent AppendRecord — sink bytes are written in sequence
// order, so a durable successor implies every predecessor reached the sink.
// The disk engine uses this to log a transaction's slot-image updates
// without paying one group-commit wait per record; the commit record's
// AppendRecord verdict then covers the whole batch.
func (l *Log) AppendRecordAsync(payload []byte) (uint64, error) {
	if l == nil {
		return 0, nil
	}
	sum := crc32.Checksum(payload, Castagnoli)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.enqueueLocked(payload, sum)
}

// enqueueLocked frames payload, whose CRC-32C is sum, under the next sequence
// number: SyncNone writes the frame through from l.buf, and the write's
// verdict is the caller's; SyncAsync and SyncGroup append it to the open
// generation's buffer. Numbering under l.mu keeps buffer and sequence order
// equal (the checksum covers only the payload). Callers hold l.mu.
func (l *Log) enqueueLocked(payload []byte, sum uint32) (uint64, error) {
	if l.failErr != nil {
		return 0, l.failErr
	}
	seq := l.seq.Add(1)
	if l.policy == SyncNone {
		l.buf = appendFrame(l.buf[:0], seq, sum, payload)
		if err := writeAll(l.w, l.buf); err != nil {
			l.failErr = err
			return 0, err
		}
		l.durable.Store(seq)
		l.bytes.Add(uint64(len(l.buf)))
	} else {
		l.buf = appendFrame(l.buf, seq, sum, payload)
	}
	l.records.Add(1)
	return seq, nil
}

// appendFrame appends one frame: the header, then payload.
func appendFrame(dst []byte, seq uint64, sum uint32, payload []byte) []byte {
	dst = append(dst, recordMagic, 0, 0, 0)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, sum)
	return append(dst, payload...)
}

// Flush forces buffered records to the sink and returns the write verdict,
// regardless of policy. The disk engine uses it as a durability barrier for
// rare out-of-band records (DDL catalog writes, WAL-before-data fallbacks);
// commits keep riding the group pipeline.
func (l *Log) Flush() error {
	if l == nil {
		return nil
	}
	if l.policy == SyncNone {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.failErr // SyncNone writes through: nothing is buffered
	}
	l.mu.Lock()
	g := l.gen
	l.sealLocked(sealFlush)
	l.mu.Unlock()
	l.complete(g)
	return g.err
}

// DurableLSN returns the highest sequence number known written to the sink.
// The buffer pool's WAL-before-data check compares a dirty page's LSN
// against it before the page may be evicted.
func (l *Log) DurableLSN() uint64 {
	if l == nil {
		return 0
	}
	return l.durable.Load()
}

// leadSpinWindow bounds how much of the lone leader's interval wait runs as
// a yield loop instead of a timer sleep. An idle Go scheduler waits for its
// next timer in the netpoller, whose timeout is whole milliseconds, so a
// timer sleep below roughly two milliseconds comes back up to a millisecond
// late — longer than every configured group interval, which is exactly what
// a lone committer's latency is made of (a direct syscall.Nanosleep of 50µs
// overshoots by ~60µs on the same host, time.Sleep by ~1040µs: see DESIGN.md
// "Arrival pacing") — so the final stretch before the deadline is always
// yielded through: a lone committer is typically the only runnable
// goroutine in that regime, making the yields free. Intervals longer than
// the window still sleep through their bulk and only spin the tail.
const leadSpinWindow = 2 * time.Millisecond

// lead runs the generation's backstop leader: its first appender, charged
// with making sure the batch eventually seals. While the leader is alone it
// waits out the interval — a lone commit owes the full flush cadence —
// sleeping through all but the last leadSpinWindow of it and yielding the
// rest, so the seal lands on the deadline instead of the runtime's rounded
// millisecond past it. A second record usually completes the batch, and its
// appender seals it; the leader then only waits for the verdict. If an
// announced writer is still outside, the leader switches to the straggler
// watch: it yields the processor in a loop, and when no new record has
// appeared for quietWait or the deadline passes, it seals. The watch costs
// a bounded few tens of microseconds per flush, and only when a writer the
// batch was waiting for is slow to arrive.
func (l *Log) lead(g *flushGen, deadline time.Time) error {
	if g.count.Load() < 2 && !g.isSealed.Load() {
		if rem := time.Until(deadline); rem > leadSpinWindow {
			t := time.NewTimer(rem - leadSpinWindow)
			select {
			case <-g.grown:
				t.Stop()
			case <-g.sealed:
				t.Stop()
			case <-t.C:
			case <-l.stop:
				t.Stop()
			}
		}
		for g.count.Load() < 2 && !g.isSealed.Load() && !l.closed.Load() &&
			time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
	last := g.count.Load()
	quiet := time.Now()
	reason := sealQuiet
	for !g.isSealed.Load() {
		if l.closed.Load() {
			reason = sealFlush
			break
		}
		now := time.Now()
		if n := g.count.Load(); n != last {
			last, quiet = n, now
		} else if !now.Before(deadline) {
			reason = sealDeadline
			break
		} else if now.Sub(quiet) >= l.quietWait {
			break
		}
		runtime.Gosched()
	}
	if l.sealIfOpen(g, reason) {
		l.complete(g)
	}
	<-g.done
	return g.err
}

// sealLocked seals the open generation for the given reason: it takes
// ownership of the buffered bytes, opens a successor chained behind it, and
// stamps the seal time that paces the next deadline. Callers hold l.mu and
// must call complete on the sealed generation after unlocking.
func (l *Log) sealLocked(reason sealReason) {
	l.seals[reason].Add(1)
	g := l.gen
	g.buf = l.buf
	g.maxSeq = l.seq.Load()
	l.buf, l.spare = l.spare, nil
	l.gen = newGen(g)
	l.lastSeal = time.Now()
	g.isSealed.Store(true)
	close(g.sealed)
}

// sealIfOpen seals g if it is still the open generation and reports whether
// the caller became its writer.
func (l *Log) sealIfOpen(g *flushGen, reason sealReason) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != g {
		return false
	}
	l.sealLocked(reason)
	return true
}

// complete writes a sealed generation's bytes and publishes the verdict.
// It first waits for the predecessor generation so sink writes happen in
// seal (= sequence) order; the open generation keeps filling meanwhile,
// which is the commit pipeline. failErr is set before done is closed, so a
// successor can never write past a dead device. The written buffer becomes
// the spare the next seal opens with: io.Writer must not retain it.
func (l *Log) complete(g *flushGen) {
	if g.prev != nil {
		<-g.prev.done
		g.prev = nil
	}
	l.mu.Lock()
	err := l.failErr
	l.mu.Unlock()
	if err == nil && len(g.buf) > 0 {
		if err = writeAll(l.w, g.buf); err == nil {
			l.bytes.Add(uint64(len(g.buf)))
			l.flushes.Add(1)
		}
	}
	l.mu.Lock()
	if err != nil && l.failErr == nil {
		l.failErr = err
	}
	if cap(g.buf) <= maxSpare && cap(g.buf) > cap(l.spare) {
		l.spare = g.buf[:0]
	}
	l.mu.Unlock()
	if err == nil {
		// Generations complete in seal order, so maxSeq is nondecreasing
		// here; every record at or below it has reached the sink.
		l.durable.Store(g.maxSeq)
	}
	g.err = err
	g.buf = nil
	close(g.done)
}

// writeAll drives w.Write to completion, converting short writes into errors.
func writeAll(w io.Writer, p []byte) error {
	n, err := w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return err
}

// flusher periodically drains the buffer (SyncAsync only).
func (l *Log) flusher() {
	ticker := time.NewTicker(l.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			l.flushNow(sealDeadline)
		case <-l.stop:
			l.flushNow(sealFlush)
			return
		}
	}
}

// flushNow seals the current generation and completes it synchronously. A
// periodic tick with nothing buffered does nothing: in SyncAsync nobody
// waits on the open generation, so sealing it would only allocate its
// successor and count a deadline seal.
func (l *Log) flushNow(reason sealReason) {
	l.mu.Lock()
	if reason == sealDeadline && len(l.buf) == 0 {
		l.mu.Unlock()
		return
	}
	g := l.gen
	l.sealLocked(reason)
	l.mu.Unlock()
	l.complete(g)
}

// Close stops background work after a final flush, which releases every
// group-commit waiter with its generation's write verdict. It is idempotent.
func (l *Log) Close() {
	if l == nil || l.policy == SyncNone {
		return
	}
	if !l.closed.CompareAndSwap(false, true) {
		return
	}
	close(l.stop)
	l.stopped.Wait()
	l.flushNow(sealFlush)
}

// Records returns the number of appended records: one commit record per
// writing RAM commit; update, commit and checkpoint records alike on a disk
// engine.
func (l *Log) Records() uint64 {
	if l == nil {
		return 0
	}
	return l.records.Load()
}

// Flushes returns the number of non-empty flushes.
func (l *Log) Flushes() uint64 {
	if l == nil {
		return 0
	}
	return l.flushes.Load()
}

// Bytes returns the number of bytes flushed.
func (l *Log) Bytes() uint64 {
	if l == nil {
		return 0
	}
	return l.bytes.Load()
}

// DeadlineSeals returns the number of generations sealed because the
// interval ran out: by an append past the deadline, by a lone leader's
// backstop, or by SyncAsync's periodic flusher.
func (l *Log) DeadlineSeals() uint64 { return l.sealCount(sealDeadline) }

// CompleteSeals returns the number of generations sealed the moment their
// batch was complete: two or more records and no announced writer outside.
func (l *Log) CompleteSeals() uint64 { return l.sealCount(sealComplete) }

// QuietSeals returns the number of generations the straggler watch sealed
// after no append arrived for its quiescence window.
func (l *Log) QuietSeals() uint64 { return l.sealCount(sealQuiet) }

// FlushSeals returns the number of generations sealed by Flush or Close.
func (l *Log) FlushSeals() uint64 { return l.sealCount(sealFlush) }

func (l *Log) sealCount(r sealReason) uint64 {
	if l == nil {
		return 0
	}
	return l.seals[r].Load()
}

// ErrTorn reports that a log ended in a torn (incomplete or checksum-corrupt)
// record, as a crash mid-write leaves behind. ReadRecords returns it together
// with every complete record that precedes the tear.
var ErrTorn = errors.New("wal: torn record at end of log")

// ReadRecords decodes a log written with AppendRecord. It returns every
// complete, checksum-valid record in append order. A torn tail — the normal
// residue of a crash between or during sink writes — yields ErrTorn alongside
// the intact prefix; any malformation that cannot be a simple tear (bad magic
// with more data following, out-of-order sequence numbers) is a hard error,
// because it means the prefix itself cannot be trusted.
func ReadRecords(r io.Reader) ([]Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	recs, _, err := ScanRecords(data)
	return recs, err
}

// ScanRecords is ReadRecords over in-memory bytes; it additionally returns
// the byte length of the clean prefix — everything before the first tear.
// Recovery truncates the log file to that length before reopening it for
// appends, so a later replay never runs into mid-file torn garbage.
func ScanRecords(data []byte) ([]Record, int, error) {
	var recs []Record
	off := 0
	var lastSeq uint64
	for off < len(data) {
		if len(data)-off < PayloadHeaderSize {
			return recs, off, ErrTorn
		}
		hdr := data[off : off+PayloadHeaderSize]
		if hdr[0] != recordMagic {
			return recs, off, fmt.Errorf("wal: record magic 0x%02x at offset %d is not this log format's 0x%02x", hdr[0], off, recordMagic)
		}
		seq := binary.BigEndian.Uint64(hdr[4:12])
		plen := int(binary.BigEndian.Uint32(hdr[12:16]))
		sum := binary.BigEndian.Uint32(hdr[16:20])
		if len(data)-off-PayloadHeaderSize < plen {
			return recs, off, ErrTorn
		}
		payload := data[off+PayloadHeaderSize : off+PayloadHeaderSize+plen]
		if crc32.Checksum(payload, Castagnoli) != sum {
			return recs, off, ErrTorn
		}
		if seq != lastSeq+1 {
			return recs, off, fmt.Errorf("wal: record sequence jump %d -> %d at offset %d", lastSeq, seq, off)
		}
		lastSeq = seq
		recs = append(recs, Record{Seq: seq, Payload: payload})
		off += PayloadHeaderSize + plen
	}
	return recs, off, nil
}
