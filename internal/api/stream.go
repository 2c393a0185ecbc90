package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"benchpress/internal/stats"
)

// StreamFrame is one Server-Sent-Events payload: a finalized throughput
// window with its latency digest, per transaction type and overall.
type StreamFrame struct {
	Workload string `json:"workload"`
	WindowPoint
	Errors int64        `json:"errors"`
	Types  []TypeWindow `json:"types,omitempty"`
	// Arrival carries the live arrival-process state on single-workload
	// streams, so a mid-run POST .../arrival is visible in the next frame
	// (absent on merged cluster streams).
	Arrival *ArrivalState `json:"arrival,omitempty"`
}

// TypeWindow is a per-transaction-type digest within one window.
type TypeWindow struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// v1Stream serves GET /api/v1/workloads/{name}/stream: the workload's
// windows, each frame carrying the live arrival-process state, ending when
// the run does.
func (s *Server) v1Stream(w http.ResponseWriter, r *http.Request) {
	m, ok := s.pathWorkload(w, r)
	if !ok {
		return
	}
	c := m.Collector()
	serveStream(w, r, c, m.Done(), func(win stats.Window) StreamFrame {
		f := streamFrame(m.Name(), c, win)
		ar := arrivalStateOf("", m.Arrival(), m.EffectiveRate())
		f.Arrival = &ar
		return f
	})
}

// serveStream is the one SSE loop, serving a workload's collector and the
// cluster's merged one alike: one "window" event per completed window,
// starting at ?from= (default 0, i.e. replay history first). Rotation is
// pull-driven — reading windows forces the collector to finalize elapsed
// ones — so frames keep flowing at one per window even when nothing is
// recorded; subscriber signals from the collector deliver fresh windows
// promptly without the handler ever blocking rotation. Heartbeat comments
// cover ticks with nothing new. Once done closes, the loop drains the final
// windows and sends an "end" event; a nil done never fires. The handler owns
// no goroutines: client disconnect unwinds it via the request context.
func serveStream(w http.ResponseWriter, r *http.Request, c *stats.Collector, done <-chan struct{}, frame func(stats.Window) StreamFrame) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "internal",
			fmt.Errorf("api: streaming unsupported by this connection"))
		return
	}
	next := 0
	if f := r.URL.Query().Get("from"); f != "" {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad_request",
				fmt.Errorf("api: invalid from=%q", f))
			return
		}
		next = n
	}
	sig, cancel := c.Subscribe()
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ticker := time.NewTicker(c.WindowDuration())
	defer ticker.Stop()
	enc := json.NewEncoder(w)
	ended := false
	for {
		wins := c.WindowsSince(next) // forces rotation: frames even while idle
		for _, win := range wins {
			fmt.Fprintf(w, "id: %d\nevent: window\ndata: ", win.Index)
			enc.Encode(frame(win)) // Encode appends the \n
			fmt.Fprint(w, "\n")
			next = win.Index + 1
		}
		if len(wins) == 0 {
			// Nothing rotated since the last tick: an SSE comment heartbeat
			// keeps the connection visibly alive.
			fmt.Fprint(w, ": heartbeat\n\n")
		}
		if ended {
			fmt.Fprint(w, "event: end\ndata: {}\n\n")
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-done:
			// Run finished: loop once more to drain the final windows,
			// then emit the end event.
			ended = true
		case <-sig:
		case <-ticker.C:
		}
	}
}

// streamFrame renders one window of collector c as a stream frame.
func streamFrame(workload string, c *stats.Collector, win stats.Window) StreamFrame {
	types := c.Types()
	f := StreamFrame{
		Workload:    workload,
		WindowPoint: pointOf(win, c.WindowDuration()),
		Errors:      win.Errors,
	}
	for i, tl := range win.TypeLat {
		if tl.Count == 0 || i >= len(types) {
			continue
		}
		f.Types = append(f.Types, TypeWindow{
			Name:  types[i],
			Count: tl.Count,
			P50MS: msOf(tl.P50),
			P95MS: msOf(tl.P95),
			P99MS: msOf(tl.P99),
		})
	}
	return f
}
