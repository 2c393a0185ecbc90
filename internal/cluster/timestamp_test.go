package cluster_test

import (
	"net"
	"testing"
	"time"

	"benchpress/internal/cluster"
	"benchpress/internal/dbdriver"
	"benchpress/internal/sqlval"
)

// TestTimestampSameAcrossEngines writes one TIMESTAMP — a non-UTC location
// and a sub-microsecond nanosecond part — through the RAM MVCC engine, the
// disk-resident lock engine (read back through the heap row codec after a
// reopen) and the engine wire, and requires all three to read back the
// ==-identical Value: one instant, in UTC, to the nanosecond.
func TestTimestampSameAcrossEngines(t *testing.T) {
	when := time.Date(2015, 5, 31, 17, 30, 1, 123456789, time.FixedZone("IST", 5*3600+1800))
	want := sqlval.NewTime(when)
	const ddl = "CREATE TABLE ev (id INT NOT NULL, at TIMESTAMP, PRIMARY KEY (id))"
	readBack := func(t *testing.T, conn *dbdriver.Conn) sqlval.Value {
		t.Helper()
		row, err := conn.QueryRow("SELECT at FROM ev WHERE id = ?", 1)
		if err != nil || row == nil {
			t.Fatalf("read back: row=%v err=%v", row, err)
		}
		return row[0]
	}
	mustExec := func(t *testing.T, conn *dbdriver.Conn, sql string, args ...any) {
		t.Helper()
		if _, err := conn.Exec(sql, args...); err != nil {
			t.Fatal(err)
		}
	}

	// RAM MVCC.
	ram, err := dbdriver.Open("gomvcc")
	if err != nil {
		t.Fatal(err)
	}
	defer ram.Close()
	rc := ram.Connect()
	defer rc.Close()
	mustExec(t, rc, ddl)
	mustExec(t, rc, "INSERT INTO ev (id, at) VALUES (?, ?)", 1, when)
	got := map[string]sqlval.Value{"gomvcc": readBack(t, rc)}

	// Disk-resident golock: close and reopen so the row is decoded from
	// its heap page.
	p, err := dbdriver.Lookup("golock")
	if err != nil {
		t.Fatal(err)
	}
	p.DataDir, p.BufferPoolPages = t.TempDir(), 8
	disk, err := dbdriver.OpenWith(p)
	if err != nil {
		t.Fatal(err)
	}
	dc := disk.Connect()
	mustExec(t, dc, ddl)
	mustExec(t, dc, "INSERT INTO ev (id, at) VALUES (?, ?)", 1, when)
	dc.Close()
	disk.Close()
	if disk, err = dbdriver.OpenWith(p); err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	dc = disk.Connect()
	defer dc.Close()
	got["golock-disk"] = readBack(t, dc)

	// The engine wire: written and read by a remote session.
	srv, err := dbdriver.Open("gomvcc")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	es := cluster.ServeEngine(ln, srv)
	defer es.Close()
	dialer, err := cluster.DialRemoteEngine(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	remote := dbdriver.OpenRemote(dialer)
	defer remote.Close()
	wc := remote.Connect()
	defer wc.Close()
	mustExec(t, wc, ddl)
	mustExec(t, wc, "INSERT INTO ev (id, at) VALUES (?, ?)", 1, when)
	got["wire"] = readBack(t, wc)

	for name, v := range got {
		if v != want {
			t.Errorf("%s read back %#v (%v), want %#v (%v)", name, v, v.Time(), want, want.Time())
		}
		if !v.Time().Equal(when) || v.Time().Nanosecond() != 123456789 || v.Time().Location() != time.UTC {
			t.Errorf("%s: Time() = %v, want %v in UTC", name, v.Time(), when)
		}
	}
}
