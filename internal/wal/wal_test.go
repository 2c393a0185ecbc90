package wal

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// commitFrameSize is the sink footprint of one commit record.
var commitFrameSize = PayloadHeaderSize + len(EncodeCommit(0))

// appendCommit logs the commit record of transaction id, as an engine does.
func appendCommit(l *Log, id uint64) error { return l.AppendRecord(EncodeCommit(id)) }

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	if err := appendCommit(l, 3); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.AppendRecordAsync(EncodeCommit(3)); seq != 0 || err != nil {
		t.Fatalf("nil async append: seq=%d err=%v", seq, err)
	}
	l.Close()
	if l.Records() != 0 || l.Flushes() != 0 || l.Bytes() != 0 {
		t.Fatal("nil log counters")
	}
	if l.Policy() != SyncNone {
		t.Fatal("nil log policy")
	}
}

func TestSyncNoneNeverWaits(t *testing.T) {
	l := New(Options{Policy: SyncNone})
	defer l.Close()
	start := time.Now()
	for i := 0; i < 1000; i++ {
		appendCommit(l, uint64(i))
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("SyncNone appends took %v", d)
	}
	if l.Records() != 1000 {
		t.Fatalf("records = %d", l.Records())
	}
}

func TestSyncGroupFlushesAndReleases(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	l := New(Options{Policy: SyncGroup, GroupInterval: 100 * time.Microsecond, W: w})
	defer l.Close()

	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			appendCommit(l, id)
		}(uint64(i))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("group-commit waiters never released")
	}
	if l.Records() != 20 {
		t.Fatalf("records = %d", l.Records())
	}
	// Group commit must batch: with 20 appends in ~one interval, the flush
	// count should be well below the record count.
	if l.Flushes() == 0 || l.Flushes() >= 20 {
		t.Fatalf("flushes = %d (batching broken)", l.Flushes())
	}
	mu.Lock()
	n := buf.Len()
	mu.Unlock()
	if n != 20*commitFrameSize {
		t.Fatalf("flushed bytes = %d, want %d", n, 20*commitFrameSize)
	}
}

func TestSyncAsyncDoesNotBlock(t *testing.T) {
	l := New(Options{Policy: SyncAsync, GroupInterval: time.Millisecond})
	start := time.Now()
	for i := 0; i < 100; i++ {
		appendCommit(l, uint64(i))
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("SyncAsync appends blocked: %v", d)
	}
	l.Close() // final flush
	if l.Bytes() != uint64(100*commitFrameSize) {
		t.Fatalf("bytes = %d", l.Bytes())
	}
}

// TestSyncAsyncSkipsEmptyTicks: the periodic flusher seals only when
// something is buffered. An idle log held for many intervals seals and
// writes nothing; one append is sealed and written exactly once, and the
// idle ticks after it stay free.
func TestSyncAsyncSkipsEmptyTicks(t *testing.T) {
	const interval = time.Millisecond
	l := New(Options{Policy: SyncAsync, GroupInterval: interval})
	defer l.Close()
	time.Sleep(15 * interval)
	if d, f := l.DeadlineSeals(), l.Flushes(); d != 0 || f != 0 {
		t.Fatalf("idle log: %d deadline seals, %d flushes; want 0 and 0", d, f)
	}
	if err := appendCommit(l, 1); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); l.Flushes() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the flusher never wrote the buffered record")
		}
		time.Sleep(interval)
	}
	time.Sleep(15 * interval)
	if d, f := l.DeadlineSeals(), l.Flushes(); d != 1 || f != 1 {
		t.Fatalf("after one append: %d deadline seals, %d flushes; want 1 and 1", d, f)
	}
	if l.Bytes() != uint64(commitFrameSize) {
		t.Fatalf("bytes = %d, want %d", l.Bytes(), commitFrameSize)
	}
}

func TestDoubleCloseSafe(t *testing.T) {
	l := New(Options{Policy: SyncGroup})
	l.Close()
	l.Close()
}

func TestPolicyString(t *testing.T) {
	if SyncNone.String() != "none" || SyncAsync.String() != "async" || SyncGroup.String() != "group" {
		t.Fatal("policy names")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// failAfter returns a writer that accepts n bytes, then fails every write
// with errDevice.
func failAfter(n int, buf *bytes.Buffer) writerFunc {
	return func(p []byte) (int, error) {
		if buf.Len()+len(p) > n {
			take := n - buf.Len()
			if take < 0 {
				take = 0
			}
			buf.Write(p[:take])
			return take, errDevice
		}
		buf.Write(p)
		return len(p), nil
	}
}

var errDevice = errors.New("wal test: device failure")

// TestGroupCommitWriteErrorPropagates is the regression test for the
// ack-on-failed-flush bug: flush() used to ignore the sink's write error and
// close the generation channel anyway, acknowledging commits whose records
// never reached the device. Every waiter of a failed flush must see the
// error, and the log must stay failed afterwards.
func TestGroupCommitWriteErrorPropagates(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	inner := failAfter(0, &buf) // device dead from the start
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return inner(p)
	})
	l := New(Options{Policy: SyncGroup, GroupInterval: 50 * time.Microsecond, W: w})
	defer l.Close()

	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- appendCommit(l, 1)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("group-commit waiter acknowledged despite failed flush")
		}
	}
	// The device failure is sticky: later appends fail immediately.
	if err := appendCommit(l, 1); err == nil {
		t.Fatal("append succeeded on a failed log")
	}
}

// TestCloseWaitsForWaiterVerdict is the regression test for Close
// acknowledging group-commit waiters on its stop signal: a waiter parked
// behind an unwritten generation must get that generation's write verdict —
// here the sink's failure — never nil before its bytes reach the sink.
func TestCloseWaitsForWaiterVerdict(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	w := writerFunc(func(p []byte) (int, error) {
		close(held) // the failed write kills the log: there is no second
		<-release
		return 0, errDevice
	})
	// An interval far beyond the test, its deadline armed by an empty seal:
	// only the two-record complete seal can end the generation, leaving one
	// of the two appenders a plain waiter.
	l := New(Options{Policy: SyncGroup, GroupInterval: time.Hour, W: w})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- appendCommit(l, 1) }()
	}
	<-held // both records sealed into one generation; its write is parked
	closed := make(chan struct{})
	go func() {
		l.Close()
		close(closed)
	}()
	<-l.stop
	select {
	case err := <-errs:
		t.Fatalf("waiter released with %v before its generation was written", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, errDevice) {
			t.Fatalf("waiter %d got %v, want the sink's failure", i, err)
		}
	}
	<-closed
}

// TestSyncNoneWriteErrorFailsAppend pins write-through semantics: a failed
// or short write must surface on the very append that hit it, and the log
// must refuse all further appends.
func TestSyncNoneWriteErrorFailsAppend(t *testing.T) {
	var buf bytes.Buffer
	l := New(Options{Policy: SyncNone, W: failAfter(commitFrameSize+4, &buf)})
	defer l.Close()
	if err := appendCommit(l, 1); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if err := appendCommit(l, 2); err == nil {
		t.Fatal("append with torn write acknowledged")
	}
	if err := appendCommit(l, 3); err == nil {
		t.Fatal("append on failed log acknowledged")
	}
	if got := l.Records(); got != 1 {
		t.Fatalf("records = %d, want 1 (failed appends must not count)", got)
	}
}

// TestAppendRecordRoundTrip checks the framed payload path end to end:
// records come back in order, sequence-stamped, with payloads intact.
func TestAppendRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := New(Options{Policy: SyncNone, W: &buf})
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-payload")}
	for _, p := range payloads {
		if err := l.AppendRecord(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	recs, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(payloads) {
		t.Fatalf("read %d records, want %d", len(recs), len(payloads))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq = %d", i, rec.Seq)
		}
		if !bytes.Equal(rec.Payload, payloads[i]) {
			t.Fatalf("record %d: payload %q, want %q", i, rec.Payload, payloads[i])
		}
	}
}

// TestReadRecordsTornTail checks crash-recovery parsing: a log cut anywhere
// inside the final record yields the complete prefix plus ErrTorn, never a
// corrupted record.
func TestReadRecordsTornTail(t *testing.T) {
	var buf bytes.Buffer
	l := New(Options{Policy: SyncNone, W: &buf})
	if err := l.AppendRecord([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRecord([]byte("second-record")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	whole := buf.Bytes()
	firstLen := PayloadHeaderSize + len("first")
	for cut := firstLen; cut < len(whole); cut++ {
		recs, err := ReadRecords(bytes.NewReader(whole[:cut]))
		if cut == firstLen {
			if err != nil {
				t.Fatalf("cut %d: clean boundary returned %v", cut, err)
			}
		} else if err != ErrTorn {
			t.Fatalf("cut %d: err = %v, want ErrTorn", cut, err)
		}
		if len(recs) != 1 || !bytes.Equal(recs[0].Payload, []byte("first")) {
			t.Fatalf("cut %d: surviving prefix = %v", cut, recs)
		}
	}
}

// TestFrameChecksumDetectsEveryPayloadBitFlip flips each bit of a middle
// frame's payload in turn and requires ScanRecords to stop at that frame with
// ErrTorn, keeping the record before it as the clean prefix.
func TestFrameChecksumDetectsEveryPayloadBitFlip(t *testing.T) {
	var sink bytes.Buffer
	l := New(Options{Policy: SyncNone, W: &sink})
	payloads := [][]byte{
		AppendUpdate(nil, UpdateRec{TxnID: 1, PageID: 11, Slot: 0, After: []byte("alpha")}),
		AppendUpdate(nil, UpdateRec{TxnID: 1, PageID: 11, Slot: 1, Before: []byte("b"), After: []byte("after")}),
		EncodeCommit(1),
	}
	for _, pl := range payloads {
		if _, err := l.AppendRecordAsync(pl); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	img := sink.Bytes()
	start := PayloadHeaderSize + len(payloads[0]) // the second frame
	for bit := 0; bit < len(payloads[1])*8; bit++ {
		at := start + PayloadHeaderSize + bit/8
		img[at] ^= 1 << (bit % 8)
		recs, clean, err := ScanRecords(img)
		if !errors.Is(err, ErrTorn) || len(recs) != 1 || clean != start {
			t.Fatalf("payload bit %d flipped: %d records, clean prefix %d, err %v; want 1, %d, ErrTorn",
				bit, len(recs), clean, err, start)
		}
		img[at] ^= 1 << (bit % 8)
	}
	if recs, _, err := ScanRecords(img); err != nil || len(recs) != len(payloads) {
		t.Fatalf("restored log: %d records, %v", len(recs), err)
	}
}

// TestReadRecordsRejectsCorruption checks that bit rot inside a record body
// is caught by the checksum rather than silently replayed.
func TestReadRecordsRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	l := New(Options{Policy: SyncNone, W: &buf})
	if err := l.AppendRecord([]byte("payload-to-corrupt")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	img := append([]byte(nil), buf.Bytes()...)
	img[PayloadHeaderSize+3] ^= 0x40 // flip one payload bit
	if _, err := ReadRecords(bytes.NewReader(img)); err == nil {
		t.Fatal("corrupted record replayed without error")
	}
}

// TestPipelinedCommitOrdering tortures the two-generations-in-flight path: a
// deliberately slow sink guarantees that while one generation's bytes are
// being written, appenders fill and seal the next. The replayed log must
// contain every acknowledged record exactly once with strictly sequential
// numbers — ReadRecords hard-errors on any sequence jump, so an out-of-order
// or duplicated sink write cannot pass. The unguarded buffer also lets the
// race detector verify that the generation chain alone serializes writers.
func TestPipelinedCommitOrdering(t *testing.T) {
	var buf bytes.Buffer
	slow := writerFunc(func(p []byte) (int, error) {
		time.Sleep(50 * time.Microsecond) // hold the pipe so generations stack up
		return buf.Write(p)
	})
	l := New(Options{Policy: SyncGroup, GroupInterval: 50 * time.Microsecond, W: slow})

	const workers, perWorker = 8, 50
	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := l.AppendRecord([]byte{byte(i)}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				acked.Add(1)
			}
		}()
	}
	wg.Wait()
	l.Close()

	recs, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if int64(len(recs)) != acked.Load() {
		t.Fatalf("replayed %d records, acknowledged %d", len(recs), acked.Load())
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: sink bytes out of seal order", i, rec.Seq)
		}
	}
	if f := l.Flushes(); f < 2 || f >= uint64(len(recs)) {
		t.Fatalf("flushes = %d for %d records: pipeline did not batch", f, len(recs))
	}
}

// seals is a log's seal counters by reason.
type seals struct{ deadline, complete, quiet, flush uint64 }

func sealsOf(l *Log) seals {
	return seals{l.DeadlineSeals(), l.CompleteSeals(), l.QuietSeals(), l.FlushSeals()}
}

// armedLog is a SyncGroup log whose first deadline is armed by an empty
// Flush seal, so only the triggers under test can seal what follows.
func armedLog(t *testing.T, interval time.Duration) *Log {
	t.Helper()
	l := New(Options{Policy: SyncGroup, GroupInterval: interval})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	return l
}

// appendCommits runs one AppendCommit per id concurrently and returns a
// channel that yields each verdict.
func appendCommits(l *Log, ids ...uint64) <-chan error {
	errs := make(chan error, len(ids))
	for _, id := range ids {
		go func(id uint64) { errs <- l.AppendCommit(EncodeCommit(id)) }(id)
	}
	return errs
}

func waitVerdicts(t *testing.T, errs <-chan error, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompleteBatchSeals: two announced writers make a complete batch the
// moment the second commit record arrives, with no straggler watch and no
// interval wait (the interval is an hour).
func TestCompleteBatchSeals(t *testing.T) {
	l := armedLog(t, time.Hour)
	defer l.Close()
	l.Announce()
	l.Announce()
	waitVerdicts(t, appendCommits(l, 1, 2), 2)
	if got, want := sealsOf(l), (seals{flush: 1, complete: 1}); got != want {
		t.Fatalf("seals = %+v, want %+v", got, want)
	}
	if l.Outside() != 0 || l.Flushes() != 1 {
		t.Fatalf("outside = %d, flushes = %d; want 0 and 1", l.Outside(), l.Flushes())
	}
}

// TestWithdrawCompletesBatch: a generation holds two commit records while a
// third announced writer is still outside; its withdrawal completes the
// batch. The straggler watch is stretched past the test so that only the
// withdrawal can seal.
func TestWithdrawCompletesBatch(t *testing.T) {
	l := armedLog(t, time.Hour)
	defer l.Close()
	l.quietWait = time.Hour
	for i := 0; i < 3; i++ {
		l.Announce()
	}
	errs := appendCommits(l, 1, 2)
	for l.Records() < 2 {
		time.Sleep(50 * time.Microsecond)
	}
	if s := sealsOf(l); s.complete != 0 {
		t.Fatalf("sealed %+v with an announced writer outside", s)
	}
	l.Withdraw()
	waitVerdicts(t, errs, 2)
	if got, want := sealsOf(l), (seals{flush: 1, complete: 1}); got != want {
		t.Fatalf("seals = %+v, want %+v", got, want)
	}
	if l.Outside() != 0 {
		t.Fatalf("outside = %d", l.Outside())
	}
}

// TestStragglerWatchIsTheFallback: while an announced writer stays outside,
// a two-record generation seals on the straggler watch, not the hour-long
// interval.
func TestStragglerWatchIsTheFallback(t *testing.T) {
	l := armedLog(t, time.Hour)
	defer l.Close()
	for i := 0; i < 3; i++ {
		l.Announce()
	}
	waitVerdicts(t, appendCommits(l, 1, 2), 2)
	l.Withdraw()
	if got, want := sealsOf(l), (seals{flush: 1, quiet: 1}); got != want {
		t.Fatalf("seals = %+v, want %+v", got, want)
	}
}

// TestLoneCommitPaysTheInterval: a one-record generation never seals early,
// announced or not.
func TestLoneCommitPaysTheInterval(t *testing.T) {
	const interval = 2 * time.Millisecond
	start := time.Now()
	l := armedLog(t, interval)
	defer l.Close()
	l.Announce()
	if err := l.AppendCommit(EncodeCommit(1)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < interval {
		t.Fatalf("lone commit returned after %v, before the %v interval", took, interval)
	}
	if got, want := sealsOf(l), (seals{flush: 1, deadline: 1}); got != want {
		t.Fatalf("seals = %+v, want %+v", got, want)
	}
}

// TestOnlyCommitRecordsUseAnnouncements: asynchronous records, plain
// records and Flush leave the announced count alone.
func TestOnlyCommitRecordsUseAnnouncements(t *testing.T) {
	l := armedLog(t, 50*time.Microsecond)
	defer l.Close()
	l.Announce()
	if _, err := l.AppendRecordAsync(EncodeCommit(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRecord(EncodeCommit(2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := l.Outside(); n != 1 {
		t.Fatalf("outside = %d after async, plain and Flush, want 1", n)
	}
	if err := l.AppendCommit(EncodeCommit(3)); err != nil {
		t.Fatal(err)
	}
	if n := l.Outside(); n != 0 {
		t.Fatalf("outside = %d after the commit record, want 0", n)
	}
}

// TestWALAppendNoAlloc checks that framing costs no allocation once the log
// is warm. SyncNone frames each record into one log-owned buffer and writes
// it through. Under SyncGroup a record is encoded in place into the open
// generation's buffer, and a flush hands the written buffer back as the
// spare the next seal opens with, so a whole cycle of appends and a flush
// allocates no more than a flush of an empty generation.
func TestWALAppendNoAlloc(t *testing.T) {
	payload := AppendUpdate(nil, UpdateRec{TxnID: 7, PageID: 3, Slot: 1,
		Before: bytes.Repeat([]byte{'b'}, 700), After: bytes.Repeat([]byte{'a'}, 700)})
	// Half the spare's cap, so append's growth stays under it.
	batch := maxSpare / 2 / (PayloadHeaderSize + len(payload))
	appendBatch := func(l *Log) {
		for i := 0; i < batch; i++ {
			if _, err := l.AppendRecordAsync(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush := func(l *Log) {
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	none := New(Options{Policy: SyncNone, W: io.Discard})
	defer none.Close()
	appendBatch(none)
	if allocs := testing.AllocsPerRun(batch, func() { appendBatch(none) }); allocs != 0 {
		t.Errorf("SyncNone: %d appends allocate %.0f, want 0", batch, allocs)
	}

	group := New(Options{Policy: SyncGroup, W: io.Discard, GroupInterval: time.Hour})
	defer group.Close()
	for round := 0; round < 2; round++ {
		appendBatch(group)
		flush(group)
	}
	if cap(group.buf) == 0 {
		t.Fatal("SyncGroup: the seal after a written generation opened an empty buffer")
	}
	empty := testing.AllocsPerRun(5, func() { flush(group) })
	cycle := testing.AllocsPerRun(5, func() { appendBatch(group); flush(group) })
	if cycle != empty {
		t.Errorf("SyncGroup: %d appends and a flush allocate %.0f, a flush alone %.0f; want equal",
			batch, cycle, empty)
	}
}
