package sqldb

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/wal"
)

func openDiskEngine(t *testing.T, dir string, poolPages int) *Engine {
	t.Helper()
	e, err := OpenDisk(Config{
		Name:            "golock-disk",
		Mode:            txn.Locking,
		WALPolicy:       wal.SyncNone,
		DataDir:         dir,
		BufferPoolPages: poolPages,
	})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	return e
}

func setupDiskPeople(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE people (
		id INT NOT NULL,
		name VARCHAR(32) NOT NULL,
		balance DOUBLE DEFAULT 0,
		PRIMARY KEY (id)
	)`)
	for i := 1; i <= 5; i++ {
		mustExec(t, s, "INSERT INTO people (id, name, balance) VALUES (?, ?, ?)",
			i, fmt.Sprintf("p%d", i), float64(i)*10)
	}
}

// TestDiskEngineRestart: rows, updates, and deletes committed before a clean
// close all survive a reopen from the heap file and WAL.
func TestDiskEngineRestart(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir, 8)
	s := e.Session()
	setupDiskPeople(t, s)
	mustExec(t, s, "UPDATE people SET name = ? WHERE id = ?", "renamed-to-something-longer", 2)
	mustExec(t, s, "DELETE FROM people WHERE id = ?", 4)
	e.Close()

	e2 := openDiskEngine(t, dir, 8)
	defer e2.Close()
	s2 := e2.Session()
	res, err := s2.Query("SELECT id, name FROM people ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows after restart, want 4", len(res.Rows))
	}
	byID := map[int64]string{}
	for _, r := range res.Rows {
		byID[r[0].Int()] = r[1].Str()
	}
	if byID[2] != "renamed-to-something-longer" {
		t.Fatalf("id 2 name = %q", byID[2])
	}
	if _, ok := byID[4]; ok {
		t.Fatal("deleted row 4 resurrected")
	}
	if rec := e2.DiskRecovery(); rec == nil || len(rec.Winners) == 0 {
		t.Fatalf("recovery result: %+v", rec)
	}
	// New writes on the recovered engine keep working and survive another
	// restart (the log continues its sequence).
	mustExec(t, s2, "INSERT INTO people (id, name, balance) VALUES (?, ?, ?)", 9, "late", 90.0)
	e2.Close()

	e3 := openDiskEngine(t, dir, 8)
	defer e3.Close()
	row, err := e3.Session().QueryRow("SELECT name FROM people WHERE id = ?", 9)
	if err != nil || row == nil {
		t.Fatalf("row 9 after second restart: %v %v", row, err)
	}
	if row[0].Str() != "late" {
		t.Fatalf("row 9 name = %q", row[0].Str())
	}
}

// TestDiskEngineCrashWithoutClose: an abandoned engine (no Close, pool never
// flushed) recovers entirely from the WAL.
func TestDiskEngineCrashWithoutClose(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir, 8)
	s := e.Session()
	setupDiskPeople(t, s)
	// No Close: the heap file may hold nothing at all; the log holds it all.

	e2 := openDiskEngine(t, dir, 8)
	defer e2.Close()
	res, err := e2.Session().Query("SELECT id FROM people ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows recovered, want 5", len(res.Rows))
	}
	if rec := e2.DiskRecovery(); rec == nil || rec.Redone == 0 {
		t.Fatalf("expected redo work, got %+v", rec)
	}
}

// TestDiskEngineLargerThanPool: a dataset spanning more pages than the buffer
// pool's budget forces evictions on the write path and still recovers whole.
func TestDiskEngineLargerThanPool(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir, 2) // 2 frames = 8 KiB of pool
	s := e.Session()
	mustExec(t, s, `CREATE TABLE blobs (
		id INT NOT NULL,
		payload VARCHAR(512) NOT NULL,
		PRIMARY KEY (id)
	)`)
	payload := make([]byte, 400)
	for i := range payload {
		payload[i] = 'x'
	}
	const rows = 64 // ~26 KiB of records over ~8 pages, 4x the pool
	for i := 0; i < rows; i++ {
		mustExec(t, s, "INSERT INTO blobs (id, payload) VALUES (?, ?)", i, string(payload))
	}
	st, ok := e.DiskPoolStats()
	if !ok {
		t.Fatal("no pool stats on a disk engine")
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions with %d rows over a 2-frame pool: %+v", rows, st)
	}
	e.Close()

	e2 := openDiskEngine(t, dir, 2)
	defer e2.Close()
	res, err := e2.Session().Query("SELECT id FROM blobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != rows {
		t.Fatalf("%d rows recovered, want %d", len(res.Rows), rows)
	}
}

// TestDiskEngineSecondaryIndexSurvives: CREATE INDEX is a logged catalog
// change; after restart the index exists and serves lookups.
func TestDiskEngineSecondaryIndexSurvives(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir, 8)
	s := e.Session()
	setupDiskPeople(t, s)
	mustExec(t, s, "CREATE INDEX idx_people_name ON people (name)")
	e.Close()

	e2 := openDiskEngine(t, dir, 8)
	defer e2.Close()
	meta, err := e2.Catalog().Table("people")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, idx := range meta.Indexes {
		if idx.Name == "idx_people_name" {
			found = true
		}
	}
	if !found {
		t.Fatalf("index lost across restart; have %+v", meta.Indexes)
	}
	row, err := e2.Session().QueryRow("SELECT id FROM people WHERE name = ?", "p3")
	if err != nil || row == nil {
		t.Fatalf("indexed lookup: %v %v", row, err)
	}
	if row[0].Int() != 3 {
		t.Fatalf("lookup returned id %d", row[0].Int())
	}
}

// TestDiskEngineDropAndTruncate: dropped and truncated tables stay gone after
// a restart (their heap records are delete-logged).
func TestDiskEngineDropAndTruncate(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir, 8)
	s := e.Session()
	setupDiskPeople(t, s)
	mustExec(t, s, `CREATE TABLE scratch (id INT NOT NULL, PRIMARY KEY (id))`)
	mustExec(t, s, "INSERT INTO scratch (id) VALUES (?)", 1)
	mustExec(t, s, "DROP TABLE scratch")
	mustExec(t, s, "TRUNCATE TABLE people")
	e.Close()

	e2 := openDiskEngine(t, dir, 8)
	defer e2.Close()
	if e2.Catalog().HasTable("scratch") {
		t.Fatal("dropped table resurrected")
	}
	res, err := e2.Session().Query("SELECT id FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("truncated table recovered %d rows", len(res.Rows))
	}
}

// TestDiskEngineRollbackNotLogged: aborted transactions leave no trace on
// disk.
func TestDiskEngineRollbackNotLogged(t *testing.T) {
	dir := t.TempDir()
	e := openDiskEngine(t, dir, 8)
	s := e.Session()
	setupDiskPeople(t, s)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO people (id, name, balance) VALUES (?, ?, ?)", 100, "ghost", 0.0)
	mustExec(t, s, "ROLLBACK")
	e.Close()

	e2 := openDiskEngine(t, dir, 8)
	defer e2.Close()
	row, err := e2.Session().QueryRow("SELECT id FROM people WHERE id = ?", 100)
	if err != nil {
		t.Fatal(err)
	}
	if row != nil {
		t.Fatal("rolled-back insert survived restart")
	}
}

// TestDiskEngineGroupCommitPolicy: the disk path also works under SyncGroup,
// where update records ride the commit record's group flush.
func TestDiskEngineGroupCommitPolicy(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDisk(Config{
		Name:      "golock-disk",
		Mode:      txn.Locking,
		WALPolicy: wal.SyncGroup,
		DataDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Session()
	setupDiskPeople(t, s)
	e.Close()

	e2 := openDiskEngine(t, dir, 8)
	defer e2.Close()
	res, err := e2.Session().Query("SELECT id FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(res.Rows))
	}
}

// TestDiskCommitsShareGroup guards the commit pipeline against
// re-serialization: two sessions committing disjoint one-row updates must
// share group flushes (a lone commit owes the whole interval, so serialized
// commits take 2N intervals with one flush each), every page must end at the
// LSN of the last op applied to it (ops applied in LSN order), and a reopen
// must recover the same rows.
func TestDiskCommitsShareGroup(t *testing.T) {
	const (
		n        = 100
		interval = 500 * time.Microsecond
	)
	dev := heap.NewMemDevice()
	open := func(image []byte, sink *bytes.Buffer) *Engine {
		t.Helper()
		e, err := OpenDisk(Config{
			Name:                "golock-disk",
			Mode:                txn.Locking,
			WALPolicy:           wal.SyncGroup,
			GroupCommitInterval: interval,
			DiskDevice:          dev,
			DiskWAL:             image,
			WALSink:             sink,
			BufferPoolPages:     8,
		})
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		return e
	}
	var sink bytes.Buffer
	e := open(nil, &sink)
	s := e.Session()
	mustExec(t, s, `CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL, PRIMARY KEY (k))`)
	mustExec(t, s, "INSERT INTO kv (k, v) VALUES (?, ?)", 1, 0)
	mustExec(t, s, "INSERT INTO kv (k, v) VALUES (?, ?)", 2, 0)

	flushes0 := e.WAL().Flushes()
	start := time.Now()
	var wg sync.WaitGroup
	for k := 1; k <= 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s := e.Session()
			for i := 1; i <= n; i++ {
				if _, err := s.Exec("UPDATE kv SET v = ? WHERE k = ?", i, k); err != nil {
					t.Errorf("session %d update %d: %v", k, i, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	flushes := e.WAL().Flushes() - flushes0
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("%d commits: %d flushes in %v", 2*n, flushes, wall)
	if flushes*4 >= 2*n*3 {
		t.Errorf("%d flushes for %d commits: commits did not share groups (want < 0.75 per commit)", flushes, 2*n)
	}
	if wall >= n*interval {
		t.Errorf("%d commits per session took %v, want < %v", n, wall, n*interval)
	}
	e.Close()

	// Every page carries the LSN of the last update record logged for it.
	recs, _, err := wal.ScanRecords(sink.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	last := map[uint32]uint64{}
	for _, r := range recs {
		ar, err := wal.DecodeARIES(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if ar.Kind == wal.KindUpdate {
			last[ar.Update.PageID] = r.Seq
		}
	}
	pages, err := dev.Pages()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, heap.PageSize)
	for id := uint32(0); id < pages; id++ {
		if err := dev.ReadPage(id, buf); err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		if err := heap.Verify(buf); err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		if got := heap.AsPage(buf).LSN(); got != last[id] {
			t.Errorf("page %d LSN = %d, want %d (its last update)", id, got, last[id])
		}
	}

	e2 := open(append([]byte(nil), sink.Bytes()...), &bytes.Buffer{})
	defer e2.Close()
	res, err := e2.Session().Query("SELECT k, v FROM kv ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Int() != n || res.Rows[1][1].Int() != n {
		t.Fatalf("recovered rows %v, want k=1,2 both at v=%d", res.Rows, n)
	}
}
