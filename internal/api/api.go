// Package api implements the RESTful control API the paper's Section 2.2.4
// describes: programmatic runtime control of a running OLTP-Bench execution
// (throttle the throughput, change the workload mixture, pause/resume, and
// start additional benchmarks on the fly) plus instantaneous feedback about
// the current throughput and latency percentiles per transaction type.
// BenchPress drives the game through exactly this interface.
//
// The API is versioned under /api/v1 with workloads as resources:
//
//	GET    /api/v1/workloads                  list workloads
//	POST   /api/v1/workloads                  start a new workload (201)
//	GET    /api/v1/workloads/{name}           status with latency percentiles
//	DELETE /api/v1/workloads/{name}           stop and deregister
//	GET    /api/v1/workloads/{name}/windows   per-window trajectory
//	GET    /api/v1/workloads/{name}/stream    live SSE window frames
//	GET/POST /api/v1/workloads/{name}/rate    read / set the rate limiter
//	GET/POST /api/v1/workloads/{name}/mixture read / set the mixture
//	POST   /api/v1/workloads/{name}/pause     pause arrivals
//	POST   /api/v1/workloads/{name}/resume    resume arrivals
//	GET    /metrics                           Prometheus text exposition
//
// In coordinator mode the server additionally exposes the cluster resource
// (worker registration, merged status/stream, aggregate rate/mixture fan-out)
// under /api/v1/cluster — see cluster.go for the endpoint table. A workload's
// stream and the merged cluster stream are one SSE loop over a
// stats.Collector (stream.go).
//
// Routes() is the only route table. All errors share one envelope:
// {"error":{"code":"...","message":"..."}}.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"benchpress/internal/cluster"
	"benchpress/internal/core"
	"benchpress/internal/monitor"
	"benchpress/internal/stats"
	"benchpress/internal/synth"
)

// maxBodyBytes bounds every request body the API decodes.
const maxBodyBytes = 1 << 20

// Server exposes a set of running workloads over HTTP.
type Server struct {
	mu        sync.RWMutex
	workloads map[string]*core.Manager
	monitor   *monitor.Monitor
	// cluster/clusterWire are set in coordinator mode (see EnableCluster):
	// the coordinator merging worker stats and the control-wire address
	// advertised to registering workers.
	cluster     *cluster.Coordinator
	clusterWire string
	// StartWorkload, when set, handles POST /api/v1/workloads: it prepares
	// and launches an additional workload and returns its manager.
	StartWorkload func(req StartRequest) (*core.Manager, error)

	// Workload-synthesis state: running captures by workload key, stored
	// profiles by id, and the scale factors recorded for capture metadata
	// (the manager itself does not retain the scale it was prepared at).
	synthMu    sync.Mutex
	captures   map[string]*synth.Capture
	profiles   map[string]*synth.Profile
	profileSeq int
	scales     map[string]float64
}

// NewServer wraps the given workloads (more may be added at runtime).
func NewServer(mon *monitor.Monitor, managers ...*core.Manager) *Server {
	s := &Server{
		workloads: map[string]*core.Manager{},
		monitor:   mon,
		captures:  map[string]*synth.Capture{},
		profiles:  map[string]*synth.Profile{},
		scales:    map[string]float64{},
	}
	for _, m := range managers {
		s.Add(m)
	}
	return s
}

// RecordScale notes a workload's scale factor so a later capture can stamp
// it into the profile.
func (s *Server) RecordScale(name string, scale float64) {
	if scale <= 0 {
		return
	}
	s.synthMu.Lock()
	defer s.synthMu.Unlock()
	s.scales[strings.ToLower(name)] = scale
}

// Add registers a running workload with the API.
func (s *Server) Add(m *core.Manager) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workloads[strings.ToLower(m.Name())] = m
}

// Remove deregisters a workload by name, reporting whether it was present.
func (s *Server) Remove(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	_, ok := s.workloads[key]
	delete(s.workloads, key)
	return ok
}

// Managers lists registered workloads sorted by name.
func (s *Server) Managers() []*core.Manager {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.workloads))
	for n := range s.workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*core.Manager, len(names))
	for i, n := range names {
		out[i] = s.workloads[n]
	}
	return out
}

// StatusResponse is the workload status payload.
type StatusResponse struct {
	Name       string             `json:"name"`
	Benchmark  string             `json:"benchmark"`
	DBMS       string             `json:"dbms"`
	Phase      int                `json:"phase"`
	Rate       float64            `json:"rate"`
	Unlimited  bool               `json:"unlimited"`
	Paused     bool               `json:"paused"`
	Stopped    bool               `json:"stopped"`
	Mix        []float64          `json:"mix"`
	TPS        float64            `json:"tps"`
	AvgLatMS   float64            `json:"avg_latency_ms"`
	P50MS      float64            `json:"p50_ms"`
	P95MS      float64            `json:"p95_ms"`
	P99MS      float64            `json:"p99_ms"`
	MaxMS      float64            `json:"max_ms"`
	AbortsPS   float64            `json:"aborts_per_sec"`
	Committed  int64              `json:"committed"`
	Aborted    int64              `json:"aborted"`
	Errors     int64              `json:"errors"`
	Retries    int64              `json:"retries"`
	Postponed  int64              `json:"postponed"`
	TypeStats  []TypeStat         `json:"types"`
	ElapsedSec float64            `json:"elapsed_sec"`
	Resources  *ResourcesResponse `json:"resources,omitempty"`
	// Arrival is the installed arrival process (Process "closed" when the
	// legacy rate limiter governs); Capturing reports an attached capture.
	Arrival   *ArrivalState `json:"arrival,omitempty"`
	Capturing bool          `json:"capturing"`

	// ResponseP50MS..P99MS are response-time percentiles (due to end: queue
	// wait plus service) over the paced transactions, cumulative like
	// P50MS..P99MS, which are service time (start to end).
	ResponseP50MS float64 `json:"response_p50_ms"`
	ResponseP95MS float64 `json:"response_p95_ms"`
	ResponseP99MS float64 `json:"response_p99_ms"`
	// SchedLagP50US, SchedLagP99US and PacerSpinFrac are the pacer's
	// self-report: how late arrivals were released, and the share of the
	// schedule the producer spent spinning for due times.
	SchedLagP50US int64   `json:"sched_lag_p50_us"`
	SchedLagP99US int64   `json:"sched_lag_p99_us"`
	PacerSpinFrac float64 `json:"pacer_spin_frac"`
}

// TypeStat is per-transaction-type feedback, cumulative over the run.
type TypeStat struct {
	Name     string  `json:"name"`
	Count    int64   `json:"count"`
	AvgLatMS float64 `json:"avg_latency_ms"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
	MaxMS    float64 `json:"max_ms"`

	// Response-time percentiles of the type's paced transactions.
	ResponseP50MS float64 `json:"response_p50_ms"`
	ResponseP95MS float64 `json:"response_p95_ms"`
	ResponseP99MS float64 `json:"response_p99_ms"`
}

// ResourcesResponse mirrors the monitoring tool's latest sample.
type ResourcesResponse struct {
	CPUUserPct   float64 `json:"cpu_user_pct"`
	CPUSystemPct float64 `json:"cpu_system_pct"`
	MemUsedPct   float64 `json:"mem_used_pct"`
	HeapMB       float64 `json:"heap_mb"`
	Goroutines   int     `json:"goroutines"`
	HostStats    bool    `json:"host_stats"`
}

// StartRequest is the POST /api/v1/workloads payload. For
// benchmark "synthetic", Profile names a stored workload profile and the
// synthesis dials (Amplify, Process, Skew) shape the replay's open-loop
// arrival spec.
type StartRequest struct {
	Name        string    `json:"name"` // workload label (defaults to benchmark)
	Benchmark   string    `json:"benchmark"`
	DBMS        string    `json:"dbms"`
	Scale       float64   `json:"scale"`
	Terminals   int       `json:"terminals"`
	DurationSec float64   `json:"duration_sec"`
	Rate        float64   `json:"rate"`
	Mix         []float64 `json:"mix"`
	// Profile is the stored profile id to synthesize from (benchmark
	// "synthetic" only); Amplify is the x-N-users dial (default 1), Process
	// overrides the arrival process kind, Skew sets the hot-key dial.
	Profile string  `json:"profile,omitempty"`
	Amplify float64 `json:"amplify,omitempty"`
	Process string  `json:"process,omitempty"`
	Skew    float64 `json:"skew,omitempty"`
	// ResolvedProfile is filled by the server before StartWorkload runs: the
	// stored profile the id referred to.
	ResolvedProfile *synth.Profile `json:"-"`
}

// snapshotToResponse builds the status payload for one manager.
func (s *Server) snapshotToResponse(m *core.Manager) StatusResponse {
	st := m.Status()
	resp := StatusResponse{
		Name:       st.Name,
		Benchmark:  st.Benchmark,
		DBMS:       st.DBMS,
		Phase:      st.Phase,
		Rate:       st.Rate,
		Unlimited:  st.Unlimited,
		Paused:     st.Paused,
		Stopped:    st.Stopped,
		Mix:        st.Mix,
		TPS:        st.Snapshot.TPS,
		AvgLatMS:   msOf(st.Snapshot.AvgLatency),
		P50MS:      msOf(st.Snapshot.Latency.P50),
		P95MS:      msOf(st.Snapshot.Latency.P95),
		P99MS:      msOf(st.Snapshot.Latency.P99),
		MaxMS:      msOf(st.Snapshot.Latency.Max),
		AbortsPS:   st.Snapshot.AbortsPerSec,
		Committed:  st.Snapshot.Committed,
		Aborted:    st.Snapshot.Aborted,
		Errors:     st.Snapshot.Errors,
		Retries:    st.Snapshot.Retries,
		Postponed:  st.Postponed,
		ElapsedSec: st.Snapshot.Elapsed.Seconds(),
		Capturing:  st.Capturing,

		ResponseP50MS: msOf(st.Snapshot.Response.P50),
		ResponseP95MS: msOf(st.Snapshot.Response.P95),
		ResponseP99MS: msOf(st.Snapshot.Response.P99),
		SchedLagP50US: st.SchedLag.P50.Microseconds(),
		SchedLagP99US: st.SchedLag.P99.Microseconds(),
		PacerSpinFrac: st.PacerSpinFrac,
	}
	ar := arrivalStateOf("", st.Arrival, st.EffectiveRate)
	resp.Arrival = &ar
	for i, name := range st.Snapshot.TypeNames {
		tl, tr := st.Snapshot.TypeLat[i], st.Snapshot.TypeResp[i]
		resp.TypeStats = append(resp.TypeStats, TypeStat{
			Name:     name,
			Count:    st.Snapshot.TypeCounts[i],
			AvgLatMS: msOf(st.Snapshot.TypeLatency[i]),
			P50MS:    msOf(tl.P50),
			P95MS:    msOf(tl.P95),
			P99MS:    msOf(tl.P99),
			MaxMS:    msOf(tl.Max),

			ResponseP50MS: msOf(tr.P50),
			ResponseP95MS: msOf(tr.P95),
			ResponseP99MS: msOf(tr.P99),
		})
	}
	if s.monitor != nil {
		r := s.monitor.Latest()
		resp.Resources = &ResourcesResponse{
			CPUUserPct:   r.CPUUserPct,
			CPUSystemPct: r.CPUSystemPct,
			MemUsedPct:   r.MemUsedPct,
			HeapMB:       r.HeapMB,
			Goroutines:   r.Goroutines,
			HostStats:    r.HostStats,
		}
	}
	return resp
}

func msOf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// allowOnly answers any unmatched method on a known path with a JSON 405.
func allowOnly(methods string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", methods)
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Errorf("api: method %s not allowed (allow: %s)", r.Method, methods))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorEnvelope is the uniform error shape of every non-2xx response.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeErr(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorEnvelope{Error: errorBody{Code: code, Message: err.Error()}})
}

// decodeJSON enforces the POST body contract: application/json content type,
// a size cap, and strict-enough decoding. It writes the error response
// itself and reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || mt != "application/json" {
			writeErr(w, http.StatusUnsupportedMediaType, "unsupported_media_type",
				fmt.Errorf("api: content type %q not supported; use application/json", ct))
			return false
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "request_too_large",
				fmt.Errorf("api: request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("api: invalid JSON body: %w", err))
		return false
	}
	return true
}

// pathWorkload resolves the {name} path value, writing the 404 itself.
func (s *Server) pathWorkload(w http.ResponseWriter, r *http.Request) (*core.Manager, bool) {
	name := r.PathValue("name")
	s.mu.RLock()
	m, ok := s.workloads[strings.ToLower(name)]
	s.mu.RUnlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", fmt.Errorf("api: unknown workload %q", name))
	}
	return m, ok
}

// ---- v1 resource handlers ----

// WorkloadList is the GET /api/v1/workloads payload.
type WorkloadList struct {
	Workloads []StatusResponse `json:"workloads"`
}

func (s *Server) v1ListWorkloads(w http.ResponseWriter, r *http.Request) {
	out := WorkloadList{Workloads: []StatusResponse{}}
	for _, m := range s.Managers() {
		out.Workloads = append(out.Workloads, s.snapshotToResponse(m))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) v1CreateWorkload(w http.ResponseWriter, r *http.Request) {
	if s.StartWorkload == nil {
		writeErr(w, http.StatusNotImplemented, "not_implemented",
			fmt.Errorf("api: dynamic workload start not enabled"))
		return
	}
	var req StartRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Profile != "" {
		p, err := s.profileByID(req.Profile)
		if err != nil {
			writeErr(w, http.StatusNotFound, "not_found", err)
			return
		}
		req.ResolvedProfile = p
	}
	m, err := s.StartWorkload(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	s.Add(m)
	s.RecordScale(m.Name(), req.Scale)
	w.Header().Set("Location", "/api/v1/workloads/"+strings.ToLower(m.Name()))
	writeJSON(w, http.StatusCreated, s.snapshotToResponse(m))
}

func (s *Server) v1Status(w http.ResponseWriter, r *http.Request) {
	m, ok := s.pathWorkload(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.snapshotToResponse(m))
}

// DeleteResponse is the DELETE /api/v1/workloads/{name} payload.
type DeleteResponse struct {
	Name    string `json:"name"`
	Deleted bool   `json:"deleted"`
}

func (s *Server) v1DeleteWorkload(w http.ResponseWriter, r *http.Request) {
	m, ok := s.pathWorkload(w, r)
	if !ok {
		return
	}
	m.Stop()
	s.Remove(m.Name())
	// Drop any synthesis state tied to the workload; an unfinished capture
	// dies with it (its profile was never materialized).
	key := strings.ToLower(m.Name())
	s.synthMu.Lock()
	delete(s.captures, key)
	delete(s.scales, key)
	s.synthMu.Unlock()
	writeJSON(w, http.StatusOK, DeleteResponse{Name: m.Name(), Deleted: true})
}

func (s *Server) v1Windows(w http.ResponseWriter, r *http.Request) {
	m, ok := s.pathWorkload(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, windowPoints(m.Collector()))
}

// RateState is the GET/POST .../rate payload.
type RateState struct {
	Workload  string  `json:"workload"`
	TPS       float64 `json:"tps"`
	Unlimited bool    `json:"unlimited"`
	Paused    bool    `json:"paused"`
}

func rateState(m *core.Manager) RateState {
	rate := m.Rate()
	return RateState{Workload: m.Name(), TPS: rate, Unlimited: rate <= 0, Paused: m.Paused()}
}

func (s *Server) v1GetRate(w http.ResponseWriter, r *http.Request) {
	m, ok := s.pathWorkload(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, rateState(m))
}

func (s *Server) v1SetRate(w http.ResponseWriter, r *http.Request) {
	m, ok := s.pathWorkload(w, r)
	if !ok {
		return
	}
	var req rateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.TPS < 0 {
		writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("api: rate must be non-negative, got %v", req.TPS))
		return
	}
	if req.Unlimited {
		m.SetRate(0)
	} else {
		m.SetRate(req.TPS)
	}
	writeJSON(w, http.StatusOK, rateState(m))
}

// MixtureState is the GET/POST .../mixture payload.
type MixtureState struct {
	Workload string    `json:"workload"`
	Types    []string  `json:"types"`
	Weights  []float64 `json:"weights"`
}

func mixtureState(m *core.Manager) MixtureState {
	return MixtureState{Workload: m.Name(), Types: m.Collector().Types(), Weights: m.Mix()}
}

func (s *Server) v1GetMixture(w http.ResponseWriter, r *http.Request) {
	m, ok := s.pathWorkload(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, mixtureState(m))
}

func (s *Server) v1SetMixture(w http.ResponseWriter, r *http.Request) {
	m, ok := s.pathWorkload(w, r)
	if !ok {
		return
	}
	var req mixtureRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	mix, err := mixtureWeights(req, func(readonly bool) ([]float64, error) { return presetOf(m, readonly) })
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	m.SetMix(mix)
	writeJSON(w, http.StatusOK, mixtureState(m))
}

func (s *Server) v1Pause(w http.ResponseWriter, r *http.Request) {
	m, ok := s.pathWorkload(w, r)
	if !ok {
		return
	}
	m.Pause()
	writeJSON(w, http.StatusOK, rateState(m))
}

func (s *Server) v1Resume(w http.ResponseWriter, r *http.Request) {
	m, ok := s.pathWorkload(w, r)
	if !ok {
		return
	}
	m.Resume()
	writeJSON(w, http.StatusOK, rateState(m))
}

// ---- shared route logic ----

// WindowPoint is one per-window observation for plotting and streaming.
type WindowPoint struct {
	Second    int     `json:"second"`
	TPS       float64 `json:"tps"`
	AvgLatMS  float64 `json:"avg_latency_ms"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	P99MS     float64 `json:"p99_ms"`
	MaxMS     float64 `json:"max_ms"`
	Aborted   int64   `json:"aborted"`
	Committed int64   `json:"committed"`

	// Response-time percentiles (due to end) of the window's paced
	// transactions; 0 in a window without any.
	ResponseP50MS float64 `json:"response_p50_ms"`
	ResponseP95MS float64 `json:"response_p95_ms"`
	ResponseP99MS float64 `json:"response_p99_ms"`
}

func pointOf(win stats.Window, dur time.Duration) WindowPoint {
	return WindowPoint{
		Second:    win.Index,
		TPS:       win.TPS(dur),
		AvgLatMS:  msOf(win.AvgLatency()),
		P50MS:     msOf(win.Lat.P50),
		P95MS:     msOf(win.Lat.P95),
		P99MS:     msOf(win.Lat.P99),
		MaxMS:     msOf(win.Lat.Max),
		Aborted:   win.Aborted,
		Committed: win.Committed,

		ResponseP50MS: msOf(win.Resp.P50),
		ResponseP95MS: msOf(win.Resp.P95),
		ResponseP99MS: msOf(win.Resp.P99),
	}
}

// windowPoints renders a collector's finalized windows: a workload's, or the
// cluster's merged feed.
func windowPoints(c *stats.Collector) []WindowPoint {
	windows := c.Windows()
	dur := c.WindowDuration()
	out := make([]WindowPoint, 0, len(windows))
	for _, win := range windows {
		out = append(out, pointOf(win, dur))
	}
	return out
}

// rateRequest is the set-rate payload.
type rateRequest struct {
	TPS       float64 `json:"tps"`
	Unlimited bool    `json:"unlimited"`
}

// mixtureRequest is the set-mixture payload: explicit weights or a named
// preset ("default", "readonly", "writeheavy").
type mixtureRequest struct {
	Weights []float64 `json:"weights"`
	Preset  string    `json:"preset"`
}

// PresetMixer is implemented by benchmarks that provide the game's preset
// mixtures.
type PresetMixer interface {
	ReadOnlyMix() []float64
	WriteHeavyMix() []float64
}

// mixtureWeights resolves a mixture request to the weights to install, nil
// meaning the benchmark default. It is the one validator of both mixture
// routes: explicit weights must be non-empty, non-negative and not all zero,
// since the sampler runs only the first procedure of a zero-sum mixture.
// preset resolves the read-only and write-heavy presets; it is nil where the
// benchmark is not at hand (the cluster route).
func mixtureWeights(req mixtureRequest, preset func(readonly bool) ([]float64, error)) ([]float64, error) {
	switch strings.ToLower(req.Preset) {
	case "", "custom":
		var sum float64
		for i, wt := range req.Weights {
			if wt < 0 {
				return nil, fmt.Errorf("api: mixture weight %d must be non-negative, got %v", i, wt)
			}
			sum += wt
		}
		if sum <= 0 {
			return nil, fmt.Errorf("api: mixture needs a positive weight or a preset, got %v", req.Weights)
		}
		return req.Weights, nil
	case "default":
		return nil, nil
	case "readonly", "read-only":
		if preset != nil {
			return preset(true)
		}
	case "writeheavy", "super-writes", "write-heavy":
		if preset != nil {
			return preset(false)
		}
	}
	return nil, fmt.Errorf("api: unknown preset %q", req.Preset)
}

// presetOf resolves a benchmark's preset mixture, deriving one from the
// procedure read-only flags when the benchmark does not provide its own.
func presetOf(m *core.Manager, readonly bool) ([]float64, error) {
	if pm, ok := m.Benchmark().(PresetMixer); ok {
		if readonly {
			return pm.ReadOnlyMix(), nil
		}
		return pm.WriteHeavyMix(), nil
	}
	procs := m.Benchmark().Procedures()
	defaults := m.Benchmark().DefaultMix()
	mix := make([]float64, len(procs))
	any := false
	for i, p := range procs {
		if p.ReadOnly == readonly {
			mix[i] = defaults[i]
			if defaults[i] > 0 {
				any = true
			}
		}
	}
	if !any {
		return nil, fmt.Errorf("api: %s has no %s transactions with default weight",
			m.Benchmark().Name(), presetName(readonly))
	}
	return mix, nil
}

func presetName(readonly bool) string {
	if readonly {
		return "read-only"
	}
	return "write-heavy"
}
