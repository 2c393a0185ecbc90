package api

import (
	"fmt"
	"net/http"
	"strconv"

	"benchpress/internal/cluster"
	"benchpress/internal/stats"
)

// Cluster endpoints (registered only when the server runs in coordinator
// mode, see EnableCluster):
//
//	POST   /api/v1/cluster/workers       register a worker agent (201)
//	GET    /api/v1/cluster               merged cluster status
//	GET    /api/v1/cluster/workers       per-worker status list
//	DELETE /api/v1/cluster/workers/{id}  evict a worker (rebalances shares)
//	GET/POST /api/v1/cluster/rate        read / set the aggregate rate
//	GET/POST /api/v1/cluster/mixture     read / set the cluster-wide mixture
//	POST   /api/v1/cluster/pause         pause arrivals on every worker
//	POST   /api/v1/cluster/resume        resume arrivals on every worker
//	GET    /api/v1/cluster/windows       merged per-window trajectory
//	GET    /api/v1/cluster/stream        merged live SSE window feed
//
// The merged feed is the coordinator's stats.Collector, served by the same
// windowPoints and SSE loop as a single workload (workload name "cluster"), so
// BenchPress front-ends consume either without caring how many load
// generators are behind it. Until the first worker attaches there is no type
// list and so no feed: windows and stream answer 409.

// EnableCluster switches the server into coordinator mode: co merges worker
// stats and fans controls out; wireAddr is the control-wire TCP address
// advertised to registering workers.
func (s *Server) EnableCluster(co *cluster.Coordinator, wireAddr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cluster = co
	s.clusterWire = wireAddr
}

// clusterCoord returns the coordinator, writing the error response when the
// server is not in coordinator mode.
func (s *Server) clusterCoord(w http.ResponseWriter) (*cluster.Coordinator, bool) {
	s.mu.RLock()
	co := s.cluster
	s.mu.RUnlock()
	if co == nil {
		writeErr(w, http.StatusNotFound, "not_found",
			fmt.Errorf("api: cluster mode not enabled on this server"))
		return nil, false
	}
	return co, true
}

// clusterFeed returns the coordinator's merged collector, writing the error
// response when there is none: 404 outside coordinator mode, 409 before the
// first worker's Hello has fixed the type list.
func (s *Server) clusterFeed(w http.ResponseWriter) (*stats.Collector, bool) {
	co, ok := s.clusterCoord(w)
	if !ok {
		return nil, false
	}
	feed := co.Collector()
	if feed == nil {
		writeErr(w, http.StatusConflict, "conflict",
			fmt.Errorf("api: no worker has attached yet, so the merged feed has no type list"))
		return nil, false
	}
	return feed, true
}

func (s *Server) v1ClusterRegister(w http.ResponseWriter, r *http.Request) {
	co, ok := s.clusterCoord(w)
	if !ok {
		return
	}
	var req cluster.RegisterRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	id, err := co.Register(req.Name, req.Benchmark, req.DB)
	if err != nil {
		writeErr(w, http.StatusConflict, "conflict", err)
		return
	}
	s.mu.RLock()
	wire := s.clusterWire
	s.mu.RUnlock()
	writeJSON(w, http.StatusCreated, cluster.RegisterResponse{
		WorkerID:    id,
		WireAddr:    wire,
		WindowUS:    co.WindowDuration().Microseconds(),
		FlushUS:     0, // authoritative cadences arrive with the wire Welcome
		HeartbeatUS: 0,
	})
}

// ClusterStatusResponse is the merged cluster status payload: the
// coordinator's state plus the cluster-cumulative latency digest in
// milliseconds.
type ClusterStatusResponse struct {
	cluster.ClusterStatus
	LatCount int64   `json:"lat_count"`
	MeanMS   float64 `json:"mean_ms"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
	MaxMS    float64 `json:"max_ms"`
}

func clusterStatusResponse(co *cluster.Coordinator) ClusterStatusResponse {
	st := co.Status()
	return ClusterStatusResponse{
		ClusterStatus: st,
		LatCount:      st.Latency.Count,
		MeanMS:        msOf(st.Latency.Mean),
		P50MS:         msOf(st.Latency.P50),
		P95MS:         msOf(st.Latency.P95),
		P99MS:         msOf(st.Latency.P99),
		MaxMS:         msOf(st.Latency.Max),
	}
}

func (s *Server) v1ClusterStatus(w http.ResponseWriter, r *http.Request) {
	co, ok := s.clusterCoord(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, clusterStatusResponse(co))
}

func (s *Server) v1ClusterWorkers(w http.ResponseWriter, r *http.Request) {
	co, ok := s.clusterCoord(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, co.Status().Workers)
}

func (s *Server) v1ClusterEvict(w http.ResponseWriter, r *http.Request) {
	co, ok := s.clusterCoord(w)
	if !ok {
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("api: invalid worker id %q", r.PathValue("id")))
		return
	}
	if !co.EvictWorker(id) {
		writeErr(w, http.StatusNotFound, "not_found",
			fmt.Errorf("api: unknown worker id %d", id))
		return
	}
	writeJSON(w, http.StatusOK, co.Status().Workers)
}

// ClusterRateState is the GET/POST /api/v1/cluster/rate payload. TPS is the
// aggregate cluster target; Share is what each connected worker receives.
type ClusterRateState struct {
	TPS       float64 `json:"tps"`
	Unlimited bool    `json:"unlimited"`
	Paused    bool    `json:"paused"`
	Share     float64 `json:"share"`
}

func clusterRateState(co *cluster.Coordinator) ClusterRateState {
	rate := co.TargetRate()
	return ClusterRateState{
		TPS:       rate,
		Unlimited: rate <= 0,
		Paused:    co.Paused(),
		Share:     co.RateShare(),
	}
}

func (s *Server) v1ClusterGetRate(w http.ResponseWriter, r *http.Request) {
	co, ok := s.clusterCoord(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, clusterRateState(co))
}

func (s *Server) v1ClusterSetRate(w http.ResponseWriter, r *http.Request) {
	co, ok := s.clusterCoord(w)
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
		co.SetRate(0)
	} else {
		co.SetRate(req.TPS)
	}
	writeJSON(w, http.StatusOK, clusterRateState(co))
}

// ClusterMixtureState is the GET/POST /api/v1/cluster/mixture payload.
type ClusterMixtureState struct {
	Types   []string  `json:"types"`
	Weights []float64 `json:"weights,omitempty"`
}

func (s *Server) v1ClusterGetMixture(w http.ResponseWriter, r *http.Request) {
	co, ok := s.clusterCoord(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, ClusterMixtureState{Types: co.Types(), Weights: co.Mix()})
}

func (s *Server) v1ClusterSetMixture(w http.ResponseWriter, r *http.Request) {
	co, ok := s.clusterCoord(w)
	if !ok {
		return
	}
	var req mixtureRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	mix, err := mixtureWeights(req, nil)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	co.SetMix(mix)
	writeJSON(w, http.StatusOK, ClusterMixtureState{Types: co.Types(), Weights: co.Mix()})
}

func (s *Server) v1ClusterPause(w http.ResponseWriter, r *http.Request) {
	co, ok := s.clusterCoord(w)
	if !ok {
		return
	}
	co.SetPaused(true)
	writeJSON(w, http.StatusOK, clusterRateState(co))
}

func (s *Server) v1ClusterResume(w http.ResponseWriter, r *http.Request) {
	co, ok := s.clusterCoord(w)
	if !ok {
		return
	}
	co.SetPaused(false)
	writeJSON(w, http.StatusOK, clusterRateState(co))
}

func (s *Server) v1ClusterWindows(w http.ResponseWriter, r *http.Request) {
	if feed, ok := s.clusterFeed(w); ok {
		writeJSON(w, http.StatusOK, windowPoints(feed))
	}
}

// v1ClusterStream serves the merged SSE feed. It never ends: the cluster
// outlives any one worker's run.
func (s *Server) v1ClusterStream(w http.ResponseWriter, r *http.Request) {
	feed, ok := s.clusterFeed(w)
	if !ok {
		return
	}
	serveStream(w, r, feed, nil, func(win stats.Window) StreamFrame {
		return streamFrame("cluster", feed, win)
	})
}
