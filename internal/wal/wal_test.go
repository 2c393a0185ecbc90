package wal

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	if err := l.Append(3); err != nil {
		t.Fatal(err)
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
		l.Append(1)
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
		go func() {
			defer wg.Done()
			l.Append(2)
		}()
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
	if n != 20*recordHeaderSize {
		t.Fatalf("flushed bytes = %d, want %d", n, 20*recordHeaderSize)
	}
}

func TestSyncAsyncDoesNotBlock(t *testing.T) {
	l := New(Options{Policy: SyncAsync, GroupInterval: time.Millisecond})
	start := time.Now()
	for i := 0; i < 100; i++ {
		l.Append(1)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("SyncAsync appends blocked: %v", d)
	}
	l.Close() // final flush
	if l.Bytes() != 100*recordHeaderSize {
		t.Fatalf("bytes = %d", l.Bytes())
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
			errs <- l.Append(1)
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
	if err := l.Append(1); err == nil {
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
	// only the two-record straggler seal can end the generation, leaving
	// one of the two appenders a plain waiter.
	l := New(Options{Policy: SyncGroup, GroupInterval: time.Hour, W: w})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- l.Append(1) }()
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
	l := New(Options{Policy: SyncNone, W: failAfter(recordHeaderSize+4, &buf)})
	defer l.Close()
	if err := l.Append(1); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if err := l.Append(1); err == nil {
		t.Fatal("append with torn write acknowledged")
	}
	if err := l.Append(1); err == nil {
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
	firstLen := payloadHeaderSize + len("first")
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
	img[payloadHeaderSize+3] ^= 0x40 // flip one payload bit
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
