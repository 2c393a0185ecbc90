package api

import (
	"fmt"
	"net/http"
	"strings"
)

// Route is one versioned API endpoint: an HTTP method plus a Go 1.22
// ServeMux path pattern. The route table is the single source of truth for
// the mux — Handler registers exactly these, and the documentation-parity
// test walks the same table against API.md, so an endpoint cannot exist
// undocumented or be documented without existing.
type Route struct {
	Method  string
	Pattern string
	handler http.HandlerFunc
}

// Routes returns the versioned route table.
func (s *Server) Routes() []Route {
	return []Route{
		// Workload resources.
		{"GET", "/api/v1/workloads", s.v1ListWorkloads},
		{"POST", "/api/v1/workloads", s.v1CreateWorkload},
		{"GET", "/api/v1/workloads/{name}", s.v1Status},
		{"DELETE", "/api/v1/workloads/{name}", s.v1DeleteWorkload},
		{"GET", "/api/v1/workloads/{name}/windows", s.v1Windows},
		{"GET", "/api/v1/workloads/{name}/stream", s.v1Stream},
		{"GET", "/api/v1/workloads/{name}/rate", s.v1GetRate},
		{"POST", "/api/v1/workloads/{name}/rate", s.v1SetRate},
		{"GET", "/api/v1/workloads/{name}/mixture", s.v1GetMixture},
		{"POST", "/api/v1/workloads/{name}/mixture", s.v1SetMixture},
		{"POST", "/api/v1/workloads/{name}/pause", s.v1Pause},
		{"POST", "/api/v1/workloads/{name}/resume", s.v1Resume},

		// Workload synthesis: live capture control and the arrival-process
		// dial on a workload, plus the stored-profile registry.
		{"GET", "/api/v1/workloads/{name}/capture", s.v1GetCapture},
		{"POST", "/api/v1/workloads/{name}/capture", s.v1StartCapture},
		{"DELETE", "/api/v1/workloads/{name}/capture", s.v1FinishCapture},
		{"GET", "/api/v1/workloads/{name}/arrival", s.v1GetArrival},
		{"POST", "/api/v1/workloads/{name}/arrival", s.v1SetArrival},
		{"GET", "/api/v1/profiles", s.v1ListProfiles},
		{"POST", "/api/v1/profiles", s.v1UploadProfile},
		{"GET", "/api/v1/profiles/{id}", s.v1GetProfile},
		{"DELETE", "/api/v1/profiles/{id}", s.v1DeleteProfile},

		// Cluster coordination (answers 404 unless EnableCluster was called).
		{"GET", "/api/v1/cluster", s.v1ClusterStatus},
		{"GET", "/api/v1/cluster/workers", s.v1ClusterWorkers},
		{"POST", "/api/v1/cluster/workers", s.v1ClusterRegister},
		{"DELETE", "/api/v1/cluster/workers/{id}", s.v1ClusterEvict},
		{"GET", "/api/v1/cluster/rate", s.v1ClusterGetRate},
		{"POST", "/api/v1/cluster/rate", s.v1ClusterSetRate},
		{"GET", "/api/v1/cluster/mixture", s.v1ClusterGetMixture},
		{"POST", "/api/v1/cluster/mixture", s.v1ClusterSetMixture},
		{"POST", "/api/v1/cluster/pause", s.v1ClusterPause},
		{"POST", "/api/v1/cluster/resume", s.v1ClusterResume},
		{"GET", "/api/v1/cluster/windows", s.v1ClusterWindows},
		{"GET", "/api/v1/cluster/stream", s.v1ClusterStream},

		// Observability.
		{"GET", "/metrics", s.handleMetrics},
	}
}

// Handler returns the HTTP mux implementing the API, built from the route
// table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	// Register every route, collecting the method set per path so the
	// method-less fallback can answer wrong-method requests with a JSON 405
	// and an explicit Allow header instead of the mux's text/plain one.
	methods := map[string][]string{}
	var order []string
	for _, rt := range s.Routes() {
		mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.handler)
		if _, seen := methods[rt.Pattern]; !seen {
			order = append(order, rt.Pattern)
		}
		methods[rt.Pattern] = append(methods[rt.Pattern], rt.Method)
	}
	for _, pattern := range order {
		mux.HandleFunc(pattern, allowOnly(strings.Join(methods[pattern], ", ")))
	}

	// Everything else is a JSON 404 rather than the mux's text/plain one.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, "not_found",
			fmt.Errorf("api: no such resource %s", r.URL.Path))
	})
	return mux
}
