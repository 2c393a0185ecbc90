package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
)

// apiBench is a two-type benchmark for API tests.
type apiBench struct{}

func (b *apiBench) Name() string { return "apibench" }
func (b *apiBench) Procedures() []core.Procedure {
	return []core.Procedure{
		{Name: "R", ReadOnly: true, Fn: func(conn *dbdriver.Conn, rng *rand.Rand) error {
			_, err := conn.QueryRow("SELECT v FROM kv WHERE k = ?", rng.Intn(10))
			return err
		}},
		{Name: "W", Fn: func(conn *dbdriver.Conn, rng *rand.Rand) error {
			_, err := conn.Exec("UPDATE kv SET v = v + 1 WHERE k = ?", rng.Intn(10))
			return err
		}},
	}
}
func (b *apiBench) DefaultMix() []float64 { return []float64{50, 50} }
func (b *apiBench) CreateSchema(conn *dbdriver.Conn) error {
	_, err := conn.Exec("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k))")
	return err
}
func (b *apiBench) Load(db *dbdriver.DB, rng *rand.Rand) error {
	conn := db.Connect()
	defer conn.Close()
	for i := 0; i < 10; i++ {
		if _, err := conn.Exec("INSERT INTO kv (k, v) VALUES (?, 0)", i); err != nil {
			return err
		}
	}
	return nil
}

// startTestServer launches a workload and the API around it.
func startTestServer(t *testing.T) (*httptest.Server, *core.Manager, context.CancelFunc) {
	t.Helper()
	db, err := dbdriver.Open("gomvcc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	b := &apiBench{}
	if err := core.Prepare(b, db, 1); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(b, db, []core.Phase{{Duration: time.Hour, Rate: 300}}, core.Options{Terminals: 2, Name: "w1"})
	ctx, cancel := context.WithCancel(context.Background())
	go m.Run(ctx)
	srv := NewServer(nil, m)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, m, cancel
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == 200 {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func TestStatusEndpoint(t *testing.T) {
	ts, _, cancel := startTestServer(t)
	defer cancel()
	time.Sleep(1200 * time.Millisecond) // let a stats window complete
	var st StatusResponse
	getJSON(t, ts.URL+"/api/v1/workloads/W1", &st) // names are case-insensitive
	if st.Name != "w1" || st.Benchmark != "apibench" || st.DBMS != "gomvcc" {
		t.Fatalf("identity: %+v", st)
	}
	if st.TPS <= 0 {
		t.Fatalf("tps = %v", st.TPS)
	}
	if len(st.TypeStats) != 2 {
		t.Fatalf("types = %v", st.TypeStats)
	}
	if st.Rate != 300 {
		t.Fatalf("rate = %v", st.Rate)
	}
}

func TestRateControlEndpoint(t *testing.T) {
	ts, m, cancel := startTestServer(t)
	defer cancel()
	var rs RateState
	if code := postJSON(t, ts.URL+"/api/v1/workloads/w1/rate", map[string]any{"unlimited": true}, &rs); code != 200 {
		t.Fatalf("status %d", code)
	}
	if m.Rate() != 0 || !rs.Unlimited || rs.TPS != 0 {
		t.Fatalf("unlimited: rate=%v state=%+v", m.Rate(), rs)
	}
	postJSON(t, ts.URL+"/api/v1/workloads/w1/rate", map[string]any{"tps": 42.0}, &rs)
	if m.Rate() != 42 || rs.Unlimited || rs.TPS != 42 {
		t.Fatalf("limited again: rate=%v state=%+v", m.Rate(), rs)
	}
}

func TestMixtureEndpoint(t *testing.T) {
	ts, m, cancel := startTestServer(t)
	defer cancel()
	url := ts.URL + "/api/v1/workloads/w1/mixture"
	// Explicit weights.
	if code := postJSON(t, url, map[string]any{"weights": []float64{100, 0}}, nil); code != 200 {
		t.Fatalf("weights: %d", code)
	}
	if mix := m.Mix(); mix[0] != 100 || mix[1] != 0 {
		t.Fatalf("mix = %v", mix)
	}
	// Preset derived from read-only flags.
	if code := postJSON(t, url, map[string]any{"preset": "readonly"}, nil); code != 200 {
		t.Fatalf("readonly preset: %d", code)
	}
	if mix := m.Mix(); mix[0] == 0 || mix[1] != 0 {
		t.Fatalf("readonly mix = %v", mix)
	}
	if code := postJSON(t, url, map[string]any{"preset": "writeheavy"}, nil); code != 200 {
		t.Fatalf("writeheavy preset: %d", code)
	}
	if mix := m.Mix(); mix[0] != 0 || mix[1] == 0 {
		t.Fatalf("writeheavy mix = %v", mix)
	}
	// Back to default.
	postJSON(t, url, map[string]any{"preset": "default"}, nil)
	if mix := m.Mix(); mix[0] != 50 || mix[1] != 50 {
		t.Fatalf("default mix = %v", mix)
	}
	// Bad requests.
	if code := postJSON(t, url, map[string]any{"preset": "bogus"}, nil); code != 400 {
		t.Fatalf("bogus preset: %d", code)
	}
	if code := postJSON(t, url, map[string]any{}, nil); code != 400 {
		t.Fatalf("empty mixture: %d", code)
	}
}

func TestWindowsEndpoint(t *testing.T) {
	ts, _, cancel := startTestServer(t)
	defer cancel()
	time.Sleep(1200 * time.Millisecond)
	var pts []WindowPoint
	getJSON(t, ts.URL+"/api/v1/workloads/w1/windows", &pts)
	if len(pts) == 0 {
		t.Fatal("no window points")
	}
	if pts[0].TPS <= 0 && len(pts) > 1 && pts[1].TPS <= 0 {
		t.Fatalf("windows look empty: %+v", pts)
	}
}

// TestUnknownWorkload: every per-workload route answers an unknown name with
// the 404 envelope.
func TestUnknownWorkload(t *testing.T) {
	ts, _, cancel := startTestServer(t)
	defer cancel()
	for _, rt := range NewServer(nil).Routes() {
		if !strings.Contains(rt.Pattern, "{name}") {
			continue
		}
		url := ts.URL + strings.Replace(rt.Pattern, "{name}", "nope", 1)
		resp, data := doReq(t, rt.Method, url, "application/json", []byte(`{}`))
		if resp.StatusCode != 404 || decodeEnvelope(t, data) != "not_found" {
			t.Fatalf("%s %s: %d %s", rt.Method, url, resp.StatusCode, data)
		}
	}
}

// TestStartBenchmarkEndpoint: a start hook that fails answers 400 with the
// envelope and registers nothing.
func TestStartBenchmarkEndpoint(t *testing.T) {
	srv := NewServer(nil)
	srv.StartWorkload = func(req StartRequest) (*core.Manager, error) {
		return nil, fmt.Errorf("unknown benchmark %q", req.Benchmark)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, data := doReq(t, "POST", ts.URL+"/api/v1/workloads", "application/json", []byte(`{"benchmark": "x"}`))
	if resp.StatusCode != 400 || decodeEnvelope(t, data) != "bad_request" {
		t.Fatalf("failing start: %d %s", resp.StatusCode, data)
	}
	var list WorkloadList
	getJSON(t, ts.URL+"/api/v1/workloads", &list)
	if len(list.Workloads) != 0 {
		t.Fatalf("failed start registered %+v", list.Workloads)
	}
}
