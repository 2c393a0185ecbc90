package api

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"benchpress/internal/cluster"
	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
)

// clusterTestServer starts a coordinator with short cadences and an API
// server in coordinator mode around it. It returns the HTTP server, the API
// server and the control-wire address workers dial.
func clusterTestServer(t *testing.T) (*httptest.Server, *Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co := cluster.NewCoordinator(ln, cluster.CoordinatorOptions{
		Window:    200 * time.Millisecond,
		Flush:     50 * time.Millisecond,
		Heartbeat: 100 * time.Millisecond,
	})
	t.Cleanup(co.Close)
	srv := NewServer(nil)
	srv.EnableCluster(co, ln.Addr().String())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, ln.Addr().String()
}

// startClusterWorker runs one in-process worker agent "cw" on apiBench
// against the coordinator's wire. Its manager is registered with srv too,
// so the one server serves both its workload stream and the merged one.
func startClusterWorker(t *testing.T, srv *Server, wire string) *core.Manager {
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
	m := core.NewManager(b, db, []core.Phase{{Duration: time.Hour}}, core.Options{Terminals: 2, Name: "cw"})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = cluster.RunWorker(ctx, m, cluster.WorkerOptions{Addr: wire, Name: "cw", Benchmark: "apibench", DB: "gomvcc"})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	srv.Add(m)
	return m
}

// waitFor polls cond until it holds or d passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// dataFrameKeys reads the SSE stream at url until a window event with
// commits arrives and returns that frame's top-level JSON keys, sorted.
func dataFrameKeys(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	found := make(chan []string, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			var frame map[string]any
			if !ok || json.Unmarshal([]byte(data), &frame) != nil {
				continue
			}
			if n, _ := frame["committed"].(float64); n > 0 {
				keys := make([]string, 0, len(frame))
				for k := range frame {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				found <- keys
				return
			}
		}
	}()
	select {
	case keys := <-found:
		return keys
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no window frame with commits", url)
		return nil
	}
}

// TestClusterRoutesNeedClusterMode: without EnableCluster every cluster
// route answers the 404 envelope.
func TestClusterRoutesNeedClusterMode(t *testing.T) {
	srv := NewServer(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, rt := range srv.Routes() {
		if !strings.HasPrefix(rt.Pattern, "/api/v1/cluster") {
			continue
		}
		url := ts.URL + strings.Replace(rt.Pattern, "{id}", "1", 1)
		resp, data := doReq(t, rt.Method, url, "application/json", []byte(`{}`))
		if resp.StatusCode != 404 || decodeEnvelope(t, data) != "not_found" {
			t.Fatalf("%s %s: %d %s", rt.Method, url, resp.StatusCode, data)
		}
	}
}

// TestClusterBeforeFirstWorker: until a worker's Hello fixes the type list
// there is no merged feed, so windows and stream answer 409 with the
// envelope, while controls are already accepted.
func TestClusterBeforeFirstWorker(t *testing.T) {
	ts, _, _ := clusterTestServer(t)
	for _, path := range []string{"/api/v1/cluster/windows", "/api/v1/cluster/stream"} {
		resp, data := doReq(t, "GET", ts.URL+path, "", nil)
		if resp.StatusCode != 409 || decodeEnvelope(t, data) != "conflict" {
			t.Fatalf("GET %s before any worker: %d %s", path, resp.StatusCode, data)
		}
	}
	var rs ClusterRateState
	if code := postJSON(t, ts.URL+"/api/v1/cluster/rate", map[string]any{"tps": 150}, &rs); code != 200 || rs.TPS != 150 || rs.Share != 0 {
		t.Fatalf("rate before any worker: %d %+v", code, rs)
	}
}

// TestClusterControlFanOut drives the cluster controls over HTTP and checks
// each reaches a real worker, then reads the merged trajectory.
func TestClusterControlFanOut(t *testing.T) {
	ts, srv, wire := clusterTestServer(t)
	// A rate set before the worker attaches arrives with its first assignment.
	postJSON(t, ts.URL+"/api/v1/cluster/rate", map[string]any{"tps": 150}, nil)
	m := startClusterWorker(t, srv, wire)
	waitFor(t, 5*time.Second, "initial rate share", func() bool { return m.Rate() == 150 })

	var rs ClusterRateState
	if code := postJSON(t, ts.URL+"/api/v1/cluster/rate", map[string]any{"tps": 80}, &rs); code != 200 || rs.Share != 80 {
		t.Fatalf("set rate: %d %+v", code, rs)
	}
	waitFor(t, 2*time.Second, "rate fan-out", func() bool { return m.Rate() == 80 })

	var ms ClusterMixtureState
	if code := postJSON(t, ts.URL+"/api/v1/cluster/mixture", map[string]any{"weights": []float64{100, 0}}, &ms); code != 200 ||
		!reflect.DeepEqual(ms.Types, []string{"R", "W"}) {
		t.Fatalf("set mixture: %d %+v", code, ms)
	}
	waitFor(t, 2*time.Second, "mixture fan-out", func() bool {
		mix := m.Mix()
		return mix[0] == 100 && mix[1] == 0
	})

	postJSON(t, ts.URL+"/api/v1/cluster/pause", map[string]any{}, nil)
	waitFor(t, 2*time.Second, "pause fan-out", m.Paused)
	postJSON(t, ts.URL+"/api/v1/cluster/resume", map[string]any{}, nil)
	waitFor(t, 2*time.Second, "resume fan-out", func() bool { return !m.Paused() })

	// The worker is paced, so merged windows carry response time as well.
	waitFor(t, 5*time.Second, "merged window with commits and response time", func() bool {
		var pts []WindowPoint
		getJSON(t, ts.URL+"/api/v1/cluster/windows", &pts)
		for _, p := range pts {
			if p.Committed > 0 && p.ResponseP50MS > 0 {
				return true
			}
		}
		return false
	})
}

// TestClusterStreamFrameShape: the merged stream is served by the same loop
// as a workload's, so its frames carry the same JSON keys except arrival.
func TestClusterStreamFrameShape(t *testing.T) {
	ts, srv, wire := clusterTestServer(t)
	postJSON(t, ts.URL+"/api/v1/cluster/rate", map[string]any{"tps": 200}, nil)
	startClusterWorker(t, srv, wire)
	waitFor(t, 5*time.Second, "merged feed", func() bool {
		resp, _ := doReq(t, "GET", ts.URL+"/api/v1/cluster/windows", "", nil)
		return resp.StatusCode == 200
	})

	workload := dataFrameKeys(t, ts.URL+"/api/v1/workloads/cw/stream")
	merged := dataFrameKeys(t, ts.URL+"/api/v1/cluster/stream")
	var want []string
	for _, k := range workload {
		if k != "arrival" {
			want = append(want, k)
		}
	}
	if len(want) == len(workload) || !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged frame keys %v, want the workload frame's %v without arrival", merged, workload)
	}
}

// TestMixtureValidationSharedByBothRoutes: the workload and cluster mixture
// routes run one validator, so an empty, negative or all-zero weight list is
// a 400 on both and changes neither mixture.
func TestMixtureValidationSharedByBothRoutes(t *testing.T) {
	ts, srv, _ := clusterTestServer(t)
	_, m, cancel := startTestServer(t)
	defer cancel()
	srv.Add(m)
	for _, url := range []string{ts.URL + "/api/v1/workloads/w1/mixture", ts.URL + "/api/v1/cluster/mixture"} {
		for _, body := range []string{`{"weights": []}`, `{"weights": [0, 0]}`, `{"weights": [-1, 2]}`, `{}`} {
			resp, data := doReq(t, "POST", url, "application/json", []byte(body))
			if resp.StatusCode != 400 || decodeEnvelope(t, data) != "bad_request" {
				t.Fatalf("POST %s %s: %d %s", url, body, resp.StatusCode, data)
			}
		}
	}
	if mix := m.Mix(); mix[0] != 50 || mix[1] != 50 {
		t.Fatalf("workload mixture changed to %v", mix)
	}
	var ms ClusterMixtureState
	getJSON(t, ts.URL+"/api/v1/cluster/mixture", &ms)
	if ms.Weights != nil {
		t.Fatalf("cluster mixture changed to %v", ms.Weights)
	}
	// The cluster restores the benchmark default by preset, as workloads do.
	resp, data := doReq(t, "POST", ts.URL+"/api/v1/cluster/mixture", "application/json", []byte(`{"preset": "default"}`))
	if resp.StatusCode != 200 {
		t.Fatalf("default preset on the cluster: %d %s", resp.StatusCode, data)
	}
}
