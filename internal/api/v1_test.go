package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
	"benchpress/internal/stats"
)

// doReq issues a request with full control over method/body/headers and
// returns the response with its body read.
func doReq(t *testing.T, method, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// decodeEnvelope asserts the body is the uniform error envelope and returns
// its code.
func decodeEnvelope(t *testing.T, data []byte) string {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("not an error envelope: %s (%v)", data, err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("incomplete envelope: %s", data)
	}
	return env.Error.Code
}

func TestV1StatusAndList(t *testing.T) {
	ts, _, cancel := startTestServer(t)
	defer cancel()
	time.Sleep(1200 * time.Millisecond)

	var st StatusResponse
	getJSON(t, ts.URL+"/api/v1/workloads/w1", &st)
	if st.Name != "w1" || st.Benchmark != "apibench" {
		t.Fatalf("identity: %+v", st)
	}
	if st.TPS <= 0 || st.Committed == 0 {
		t.Fatalf("no progress visible: %+v", st)
	}
	// Tentpole: percentiles surface per run and per type, and order sanely.
	if st.P50MS <= 0 || st.P95MS < st.P50MS || st.P99MS < st.P95MS || st.MaxMS < st.P99MS {
		t.Fatalf("percentiles: p50=%v p95=%v p99=%v max=%v", st.P50MS, st.P95MS, st.P99MS, st.MaxMS)
	}
	for _, tst := range st.TypeStats {
		if tst.Count > 50 && (tst.P50MS <= 0 || tst.P99MS < tst.P50MS) {
			t.Fatalf("type %s percentiles: %+v", tst.Name, tst)
		}
		if tst.Count > 50 && tst.ResponseP50MS < tst.P50MS {
			t.Fatalf("type %s response p50 %v below service p50 %v", tst.Name, tst.ResponseP50MS, tst.P50MS)
		}
	}
	// The workload is paced, so response time (due to end) is known and is
	// no shorter than service time; the pacer reports on itself.
	if st.ResponseP50MS < st.P50MS || st.ResponseP95MS < st.ResponseP50MS || st.ResponseP99MS < st.ResponseP95MS {
		t.Fatalf("response percentiles: p50=%v p95=%v p99=%v against service p50=%v",
			st.ResponseP50MS, st.ResponseP95MS, st.ResponseP99MS, st.P50MS)
	}
	if st.SchedLagP99US < st.SchedLagP50US || st.PacerSpinFrac < 0 || st.PacerSpinFrac > 0.25 {
		t.Fatalf("pacer report: lag p50=%d p99=%d us, spin %v", st.SchedLagP50US, st.SchedLagP99US, st.PacerSpinFrac)
	}

	var list WorkloadList
	getJSON(t, ts.URL+"/api/v1/workloads", &list)
	if len(list.Workloads) != 1 || list.Workloads[0].Name != "w1" {
		t.Fatalf("list = %+v", list)
	}
}

func TestV1RateResource(t *testing.T) {
	ts, m, cancel := startTestServer(t)
	defer cancel()

	var rs RateState
	getJSON(t, ts.URL+"/api/v1/workloads/w1/rate", &rs)
	if rs.TPS != 300 || rs.Unlimited {
		t.Fatalf("initial rate state: %+v", rs)
	}

	resp, data := doReq(t, "POST", ts.URL+"/api/v1/workloads/w1/rate",
		"application/json", []byte(`{"tps": 42}`))
	if resp.StatusCode != 200 {
		t.Fatalf("set rate: %d %s", resp.StatusCode, data)
	}
	if m.Rate() != 42 {
		t.Fatalf("manager rate = %v", m.Rate())
	}

	resp, data = doReq(t, "POST", ts.URL+"/api/v1/workloads/w1/rate",
		"application/json", []byte(`{"tps": -5}`))
	if resp.StatusCode != 400 || decodeEnvelope(t, data) != "bad_request" {
		t.Fatalf("negative rate: %d %s", resp.StatusCode, data)
	}
}

func TestV1MixtureResource(t *testing.T) {
	ts, m, cancel := startTestServer(t)
	defer cancel()

	var ms MixtureState
	getJSON(t, ts.URL+"/api/v1/workloads/w1/mixture", &ms)
	if len(ms.Types) != 2 || ms.Types[0] != "R" || ms.Weights[0] != 50 {
		t.Fatalf("initial mixture: %+v", ms)
	}

	resp, data := doReq(t, "POST", ts.URL+"/api/v1/workloads/w1/mixture",
		"application/json", []byte(`{"weights": [100, 0]}`))
	if resp.StatusCode != 200 {
		t.Fatalf("set mixture: %d %s", resp.StatusCode, data)
	}
	if mix := m.Mix(); mix[0] != 100 || mix[1] != 0 {
		t.Fatalf("mix = %v", mix)
	}

	resp, data = doReq(t, "POST", ts.URL+"/api/v1/workloads/w1/mixture",
		"application/json", []byte(`{"preset": "bogus"}`))
	if resp.StatusCode != 400 || decodeEnvelope(t, data) != "bad_request" {
		t.Fatalf("bogus preset: %d %s", resp.StatusCode, data)
	}
}

func TestV1PauseResume(t *testing.T) {
	ts, m, cancel := startTestServer(t)
	defer cancel()
	resp, _ := doReq(t, "POST", ts.URL+"/api/v1/workloads/w1/pause", "", nil)
	if resp.StatusCode != 200 || !m.Paused() {
		t.Fatalf("pause: %d paused=%v", resp.StatusCode, m.Paused())
	}
	resp, _ = doReq(t, "POST", ts.URL+"/api/v1/workloads/w1/resume", "", nil)
	if resp.StatusCode != 200 || m.Paused() {
		t.Fatalf("resume: %d paused=%v", resp.StatusCode, m.Paused())
	}
}

func TestV1DeleteWorkload(t *testing.T) {
	ts, m, cancel := startTestServer(t)
	defer cancel()

	resp, data := doReq(t, "DELETE", ts.URL+"/api/v1/workloads/w1", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("delete: %d %s", resp.StatusCode, data)
	}
	var dr DeleteResponse
	if err := json.Unmarshal(data, &dr); err != nil || !dr.Deleted || dr.Name != "w1" {
		t.Fatalf("delete response: %s", data)
	}
	// The run stops...
	select {
	case <-m.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("workload did not stop after DELETE")
	}
	// ...and the resource is gone.
	resp, data = doReq(t, "GET", ts.URL+"/api/v1/workloads/w1", "", nil)
	if resp.StatusCode != 404 || decodeEnvelope(t, data) != "not_found" {
		t.Fatalf("after delete: %d %s", resp.StatusCode, data)
	}
	resp, _ = doReq(t, "DELETE", ts.URL+"/api/v1/workloads/w1", "", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("double delete: %d", resp.StatusCode)
	}
}

func TestErrorEnvelope(t *testing.T) {
	ts, _, cancel := startTestServer(t)
	defer cancel()

	// Unknown resource path: JSON 404, not the mux's text/plain.
	resp, data := doReq(t, "GET", ts.URL+"/api/v1/nope", "", nil)
	if resp.StatusCode != 404 || decodeEnvelope(t, data) != "not_found" {
		t.Fatalf("unknown path: %d %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("404 content type: %s", ct)
	}

	// Unknown workload.
	resp, data = doReq(t, "GET", ts.URL+"/api/v1/workloads/ghost", "", nil)
	if resp.StatusCode != 404 || decodeEnvelope(t, data) != "not_found" {
		t.Fatalf("unknown workload: %d %s", resp.StatusCode, data)
	}

	// Wrong method: JSON 405 with Allow.
	resp, data = doReq(t, "PUT", ts.URL+"/api/v1/workloads/w1/rate", "", nil)
	if resp.StatusCode != 405 || decodeEnvelope(t, data) != "method_not_allowed" {
		t.Fatalf("wrong method: %d %s", resp.StatusCode, data)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("Allow header: %q", allow)
	}

	// Wrong content type on POST: 415.
	resp, data = doReq(t, "POST", ts.URL+"/api/v1/workloads/w1/rate",
		"text/plain", []byte(`{"tps": 10}`))
	if resp.StatusCode != 415 || decodeEnvelope(t, data) != "unsupported_media_type" {
		t.Fatalf("wrong content type: %d %s", resp.StatusCode, data)
	}

	// Oversized body: 413.
	big := append([]byte(`{"tps": 1, "pad": "`), bytes.Repeat([]byte("x"), maxBodyBytes+1024)...)
	big = append(big, []byte(`"}`)...)
	resp, data = doReq(t, "POST", ts.URL+"/api/v1/workloads/w1/rate", "application/json", big)
	if resp.StatusCode != 413 || decodeEnvelope(t, data) != "request_too_large" {
		t.Fatalf("oversized body: %d %s", resp.StatusCode, data)
	}

	// Malformed JSON: 400.
	resp, data = doReq(t, "POST", ts.URL+"/api/v1/workloads/w1/rate",
		"application/json", []byte(`{"tps":`))
	if resp.StatusCode != 400 || decodeEnvelope(t, data) != "bad_request" {
		t.Fatalf("malformed JSON: %d %s", resp.StatusCode, data)
	}

	// Create without a hook: 501.
	resp, data = doReq(t, "POST", ts.URL+"/api/v1/workloads",
		"application/json", []byte(`{"benchmark": "x"}`))
	if resp.StatusCode != 501 || decodeEnvelope(t, data) != "not_implemented" {
		t.Fatalf("create without hook: %d %s", resp.StatusCode, data)
	}
}

func TestLegacyAliasesDeprecated(t *testing.T) {
	ts, _, cancel := startTestServer(t)
	defer cancel()
	resp, _ := doReq(t, "GET", ts.URL+"/status", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("legacy status: %d", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "true" {
		t.Fatal("legacy route missing Deprecation header")
	}
	if link := resp.Header.Get("Link"); !strings.Contains(link, "/api/v1/workloads") {
		t.Fatalf("legacy Link header: %q", link)
	}
	// Wrong method on a legacy path is still a JSON 405.
	resp, data := doReq(t, "DELETE", ts.URL+"/rate", "", nil)
	if resp.StatusCode != 405 || decodeEnvelope(t, data) != "method_not_allowed" {
		t.Fatalf("legacy wrong method: %d %s", resp.StatusCode, data)
	}
}

// sseFrame is one parsed SSE event.
type sseFrame struct {
	event string
	id    string
	data  string
}

// readFrames consumes SSE events from r until n "window" events arrived or
// the deadline passes.
func readFrames(t *testing.T, r io.Reader, n int, deadline time.Duration) []sseFrame {
	t.Helper()
	var out []sseFrame
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(r)
		cur := sseFrame{}
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if cur.event != "" || cur.data != "" {
					out = append(out, cur)
				}
				cur = sseFrame{}
				wins := 0
				for _, f := range out {
					if f.event == "window" {
						wins++
					}
				}
				if wins >= n {
					return
				}
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "id: "):
				cur.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("SSE: got %d frames before deadline, wanted %d window events", len(out), n)
	}
	return out
}

func TestStreamEndpoint(t *testing.T) {
	ts, _, cancel := startTestServer(t)
	defer cancel()

	resp, err := http.Get(ts.URL + "/api/v1/workloads/w1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type: %s", ct)
	}
	start := time.Now()
	frames := readFrames(t, resp.Body, 3, 10*time.Second)
	elapsed := time.Since(start)

	var wins []StreamFrame
	for _, f := range frames {
		if f.event != "window" {
			continue
		}
		var sf StreamFrame
		if err := json.Unmarshal([]byte(f.data), &sf); err != nil {
			t.Fatalf("frame %q: %v", f.data, err)
		}
		if sf.Workload != "w1" {
			t.Fatalf("frame workload: %+v", sf)
		}
		if id, _ := strconv.Atoi(f.id); id != sf.Second {
			t.Fatalf("SSE id %s != window %d", f.id, sf.Second)
		}
		wins = append(wins, sf)
	}
	if len(wins) < 3 {
		t.Fatalf("only %d window frames", len(wins))
	}
	// Windows arrive in order, roughly one per second (the window length).
	for i := 1; i < len(wins); i++ {
		if wins[i].Second != wins[i-1].Second+1 {
			t.Fatalf("out of order: %d then %d", wins[i-1].Second, wins[i].Second)
		}
	}
	if elapsed > time.Duration(len(wins)+3)*time.Second {
		t.Fatalf("3 frames took %v", elapsed)
	}
	// At 300 tps most windows carry data with percentile digests.
	var withData *StreamFrame
	for i := range wins {
		if wins[i].Committed > 0 {
			withData = &wins[i]
			break
		}
	}
	if withData == nil {
		t.Fatal("no window with committed transactions")
	}
	if withData.P95MS < withData.P50MS || len(withData.Types) == 0 {
		t.Fatalf("window digest: %+v", withData)
	}
	if withData.ResponseP50MS < withData.P50MS || withData.ResponseP99MS < withData.ResponseP50MS {
		t.Fatalf("window response digest: %+v", withData)
	}
}

func TestStreamWhilePaused(t *testing.T) {
	ts, m, cancel := startTestServer(t)
	defer cancel()
	m.Pause()
	resp, err := http.Get(ts.URL + "/api/v1/workloads/w1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Even with arrivals paused the stream keeps emitting: rotation is
	// pull-forced, so paused seconds surface as empty windows.
	frames := readFrames(t, resp.Body, 2, 10*time.Second)
	n := 0
	for _, f := range frames {
		if f.event == "window" {
			n++
		}
	}
	if n < 2 {
		t.Fatalf("paused stream produced %d frames", n)
	}
}

func TestStreamDisconnectNoLeak(t *testing.T) {
	ts, _, cancel := startTestServer(t)
	defer cancel()
	stream := func() {
		resp, err := http.Get(fmt.Sprintf("%s/api/v1/workloads/w1/stream?from=%d", ts.URL, 0))
		if err != nil {
			t.Fatal(err)
		}
		readFrames(t, resp.Body, 1, 10*time.Second)
		resp.Body.Close() // abrupt client disconnect mid-stream
	}
	// Warm-up cycle so transport/server connection plumbing is counted in
	// the baseline, then measure across repeated disconnects.
	stream()
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(200 * time.Millisecond)
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		stream()
	}
	// The handlers unwind via the request context; allow the server a
	// moment to reap connections.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after disconnects", before, runtime.NumGoroutine())
}

func TestStreamBadFrom(t *testing.T) {
	ts, _, cancel := startTestServer(t)
	defer cancel()
	resp, data := doReq(t, "GET", ts.URL+"/api/v1/workloads/w1/stream?from=x", "", nil)
	if resp.StatusCode != 400 || decodeEnvelope(t, data) != "bad_request" {
		t.Fatalf("bad from: %d %s", resp.StatusCode, data)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _, cancel := startTestServer(t)
	defer cancel()
	time.Sleep(1200 * time.Millisecond)

	resp, data := doReq(t, "GET", ts.URL+"/metrics", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type: %s", ct)
	}
	series := parseProm(t, data)

	committed := series[`benchpress_txn_committed_total{workload="w1"}`]
	if committed <= 0 {
		t.Fatalf("committed counter missing or zero:\n%s", data)
	}
	// Per-type counters sum to the global counter.
	r := series[`benchpress_txn_type_committed_total{workload="w1",type="R"}`]
	wc := series[`benchpress_txn_type_committed_total{workload="w1",type="W"}`]
	if r+wc == 0 {
		t.Fatal("per-type counters missing")
	}
	// Rate limiter state.
	if series[`benchpress_rate_target_tps{workload="w1"}`] != 300 {
		t.Fatal("rate gauge wrong")
	}
	if _, ok := series[`benchpress_queue_capacity{workload="w1"}`]; !ok {
		t.Fatal("queue capacity gauge missing")
	}
	// Histogram: +Inf bucket equals _count, buckets monotonic.
	count := series[`benchpress_txn_latency_seconds_count{workload="w1"}`]
	inf := series[`benchpress_txn_latency_seconds_bucket{workload="w1",le="+Inf"}`]
	if count == 0 || count != inf {
		t.Fatalf("histogram count %v != +Inf bucket %v", count, inf)
	}
	prev := float64(0)
	nbuckets := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, `benchpress_txn_latency_seconds_bucket{workload="w1",le=`) &&
			!strings.Contains(line, "type=") {
			parts := strings.Fields(line)
			v, err := strconv.ParseFloat(parts[len(parts)-1], 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("non-monotonic bucket: %q", line)
			}
			prev = v
			nbuckets++
		}
	}
	if nbuckets != len(stats.DefaultLEBoundsUS)+1 {
		t.Fatalf("bucket count = %d", nbuckets)
	}
	// Every paced commit has a response time, overall and per type.
	respCount := series[`benchpress_response_seconds_count{workload="w1"}`]
	respR := series[`benchpress_response_seconds_count{workload="w1",type="R"}`]
	respW := series[`benchpress_response_seconds_count{workload="w1",type="W"}`]
	if respCount == 0 || respCount != respR+respW || math.Abs(respCount-count) > 10 {
		t.Fatalf("response histogram counts %v = %v + %v against %v latencies", respCount, respR, respW, count)
	}
	if series[`benchpress_response_seconds_sum{workload="w1"}`] < series[`benchpress_txn_latency_seconds_sum{workload="w1"}`] {
		t.Fatal("summed response time below summed service time")
	}
	for _, name := range []string{"benchpress_sched_lag_p50_us", "benchpress_sched_lag_p99_us", "benchpress_pacer_spin_frac"} {
		if _, ok := series[name+`{workload="w1"}`]; !ok {
			t.Fatalf("pacer gauge %s missing", name)
		}
	}
}

// parseProm extracts "name{labels} value" series from exposition text.
func parseProm(t *testing.T, data []byte) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("bad metrics line: %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("bad metrics value in %q: %v", line, err)
		}
		out[line[:idx]] = v
	}
	return out
}

func TestV1CreateWorkload(t *testing.T) {
	db, err := dbdriver.Open("gomvcc")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	b := &apiBench{}
	if err := core.Prepare(b, db, 1); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.StartWorkload = func(req StartRequest) (*core.Manager, error) {
		m := core.NewManager(b, db, []core.Phase{{Duration: time.Hour, Rate: req.Rate}},
			core.Options{Name: req.Name})
		go m.Run(ctx)
		return m, nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := doReq(t, "POST", ts.URL+"/api/v1/workloads",
		"application/json", []byte(`{"name": "tenant2", "benchmark": "apibench", "rate": 10}`))
	if resp.StatusCode != 201 {
		t.Fatalf("create: %d %s", resp.StatusCode, data)
	}
	if loc := resp.Header.Get("Location"); loc != "/api/v1/workloads/tenant2" {
		t.Fatalf("Location: %q", loc)
	}
	var st StatusResponse
	if err := json.Unmarshal(data, &st); err != nil || st.Name != "tenant2" {
		t.Fatalf("create body: %s", data)
	}
	var list WorkloadList
	getJSON(t, ts.URL+"/api/v1/workloads", &list)
	if len(list.Workloads) != 1 || list.Workloads[0].Name != "tenant2" {
		t.Fatalf("list after create: %+v", list)
	}
}

// nopBench does no database work, so a manager pacing it spends its time in
// the framework.
type nopBench struct{ apiBench }

func (*nopBench) Procedures() []core.Procedure {
	return []core.Procedure{{Name: "Nop", Fn: func(*dbdriver.Conn, *rand.Rand) error { return nil }}}
}
func (*nopBench) DefaultMix() []float64 { return []float64{100} }

// TestControlPlaneWhilePacing guards the netpoller against the pacer: a
// producer that spun for its marks would leave nobody polling for the
// request. Fifty rate POSTs against a manager pacing 20000 tps must come
// back in under a millisecond at the median and never take 10 ms. A loaded
// host can spoil one series; a starved netpoller spoils all three.
func TestControlPlaneWhilePacing(t *testing.T) {
	db, err := dbdriver.Open("gomvcc")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := core.Prepare(&nopBench{}, db, 1); err != nil {
		t.Fatal(err)
	}
	const rate = 20000
	m := core.NewManager(&nopBench{}, db, []core.Phase{{Duration: time.Hour, Rate: rate}}, core.Options{Terminals: 2, Name: "w1"})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)
	ts := httptest.NewServer(NewServer(nil, m).Handler())
	defer ts.Close()
	time.Sleep(100 * time.Millisecond)

	var verdict error
	for attempt := 0; attempt < 3; attempt++ {
		took := make([]time.Duration, 50)
		for i := range took {
			start := time.Now()
			resp, data := doReq(t, "POST", ts.URL+"/api/v1/workloads/w1/rate", "application/json", []byte(`{"tps": 20000}`))
			took[i] = time.Since(start)
			if resp.StatusCode != 200 {
				t.Fatalf("set rate: %d %s", resp.StatusCode, data)
			}
		}
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		median, max := took[len(took)/2], took[len(took)-1]
		t.Logf("rate POST round trip: median %v, max %v", median, max)
		if verdict = nil; median >= time.Millisecond || max >= 10*time.Millisecond {
			verdict = fmt.Errorf("rate POST round trip median %v, max %v; want < 1ms and < 10ms", median, max)
			continue
		}
		break
	}
	if verdict != nil {
		t.Fatal(verdict)
	}
	if got := float64(m.Collector().Committed()) / m.Status().Snapshot.Elapsed.Seconds(); got < 0.9*rate {
		t.Fatalf("delivered %.0f tps while serving the control plane, want about %d", got, rate)
	}
}
