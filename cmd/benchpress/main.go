// Command benchpress runs the BenchPress game: a workload whose target rate
// is the player's (or autopilot's) character, an obstacle course derived
// from the paper's challenge shapes, the REST control API, and an embedded
// browser UI.
//
// Usage:
//
//	benchpress -bench ycsb -db gomvcc -course steps -autopilot        # headless
//	benchpress -bench tpcc -db golock -course sinusoidal -http :8080  # browser game
//	benchpress -course-file mycourse.json -autopilot
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"benchpress/internal/api"
	_ "benchpress/internal/benchmarks/all"
	"benchpress/internal/dbdriver"
	"benchpress/internal/experiments"
	"benchpress/internal/game"
	"benchpress/internal/monitor"
)

func main() {
	var (
		benchName  = flag.String("bench", "ycsb", "benchmark (the game character)")
		dbName     = flag.String("db", "gomvcc", "target DBMS (the game level)")
		courseName = flag.String("course", "steps", "challenge shape: steps | sinusoidal | peak | tunnel")
		courseFile = flag.String("course-file", "", "custom course JSON (overrides -course)")
		base       = flag.Float64("base", 600, "course base throughput (tps)")
		seconds    = flag.Float64("duration", 30, "course duration in seconds")
		scale      = flag.Float64("scale", 0.2, "benchmark scale factor")
		terminals  = flag.Int("terminals", 8, "worker threads")
		autopilot  = flag.Bool("autopilot", false, "let the autopilot play")
		httpAddr   = flag.String("http", "", "serve the browser UI and control API on this address")
		gravity    = flag.Float64("gravity", 0, "gravity in tps/sec (default base/2)")
		coordAddr  = flag.String("coordinator", "", "run as cluster coordinator; control-wire listen address (requires -http)")
		workerOf   = flag.String("worker", "", "run as worker agent; coordinator HTTP base URL or control-wire address")
		engineAddr = flag.String("engine-server", "", "serve the embedded engine to remote workers on this address")
		commitLat  = flag.Duration("commit-delay", 0, "engine-server only: extra per-commit latency emulating durable/replicated commits")
		serveMode  = flag.Bool("serve", false, "API-only server: workloads start, capture, and synthesize via /api/v1 (requires -http)")
		dataDir    = flag.String("data-dir", "", "run the target DBMS disk-resident: heap file + WAL in this directory, with full recovery on restart")
		poolPages  = flag.Int("buffer-pool-pages", 0, "buffer pool budget in 4KiB pages for -data-dir mode (0 = engine default)")
	)
	flag.Parse()

	// Disk residency is a property of the chosen personality: re-register the
	// target under the same name with the heap/WAL directory attached, so
	// every later Open (game backend, serve mode) gets the disk engine.
	if *dataDir != "" {
		p, err := dbdriver.Lookup(*dbName)
		if err != nil {
			fatal(err)
		}
		p.DataDir = *dataDir
		p.BufferPoolPages = *poolPages
		dbdriver.Register(p)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Serve and cluster modes replace the single-process game loop entirely.
	switch {
	case *serveMode:
		runServe(ctx, *httpAddr)
		return
	case *coordAddr != "":
		runCoordinator(ctx, *coordAddr, *httpAddr)
		return
	case *engineAddr != "":
		runEngineServer(ctx, *engineAddr, *benchName, *dbName, *scale, *commitLat)
		return
	case *workerOf != "":
		runWorkerMode(ctx, *workerOf, *benchName, *dbName, *scale, *terminals, *seconds)
		return
	}

	// Build the course.
	var course *game.Course
	var err error
	if *courseFile != "" {
		f, ferr := os.Open(*courseFile)
		if ferr != nil {
			fatal(ferr)
		}
		course, err = game.LoadCourse(f)
		_ = f.Close() // read-only course file; close cannot lose data
	} else {
		course, err = experiments.BuildCourse(*courseName, *base,
			time.Duration(*seconds*float64(time.Second)), 500*time.Millisecond)
	}
	if err != nil {
		fatal(err)
	}

	// Launch the workload (Figure 2a/2b: benchmark and DBMS selection).
	fmt.Printf("== BenchPress: %s on %s, course %q (%v)\n",
		*benchName, *dbName, course.Name, course.Duration().Round(time.Second))
	fmt.Println("   loading...")
	backend, err := game.LaunchWorkload(ctx, *benchName, *dbName, *scale, *terminals,
		course.Duration()+time.Hour)
	if err != nil {
		fatal(err)
	}

	g := *gravity
	if g <= 0 {
		g = *base / 2
	}
	state := &liveState{course: course}
	gm := game.New(course, backend, nil, game.Config{
		Gravity: g, MaxRate: *base * 5,
		OnTick: state.record,
	})

	if *httpAddr != "" {
		mon := monitor.New(time.Second)
		mon.Start()
		defer mon.Stop()
		srv := api.NewServer(mon, backend.Manager)
		go serveUI(*httpAddr, srv, gm, state)
		fmt.Printf("   UI on http://%s  (keys: space = jump)\n", *httpAddr)
	}

	var result game.Result
	if *autopilot {
		fmt.Println("   autopilot engaged")
		result = game.NewAutopilot(gm).Play(ctx)
	} else if *httpAddr == "" {
		fmt.Println("   no -http and no -autopilot: running autopilot by default")
		result = game.NewAutopilot(gm).Play(ctx)
	} else {
		result = gm.Run(ctx)
	}

	printResult(result)
	if !result.Survived {
		os.Exit(2)
	}
}

func printResult(res game.Result) {
	fmt.Printf("\n== game over: course %q\n", res.CourseName)
	if res.Survived {
		fmt.Printf("   CLEARED  score=%d\n", res.Score)
	} else {
		fmt.Printf("   CRASHED at tick %d  score=%d\n", res.CrashedAt, res.Score)
	}
	if res.Latency.Count > 0 {
		fmt.Printf("   latency: %s\n", res.Latency)
	}
	n := len(res.Trajectory)
	step := n / 12
	if step < 1 {
		step = 1
	}
	fmt.Println("   tick  corridor          target  measured")
	for i := 0; i < n; i += step {
		r := res.Trajectory[i]
		fmt.Printf("   %4d  [%6.0f,%6.0f]  %7.0f  %8.1f\n", r.Index, r.Lo, r.Hi, r.Target, r.Measured)
	}
}

// liveState buffers tick records for the browser.
type liveState struct {
	mu     sync.Mutex
	course *game.Course
	ticks  []game.TickRecord
}

func (s *liveState) record(r game.TickRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ticks = append(s.ticks, r)
}

func (s *liveState) snapshot() []game.TickRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]game.TickRecord, len(s.ticks))
	copy(out, s.ticks)
	return out
}

// serveUI mounts the control API at its canonical paths (/api/v1/ and
// /metrics), the game endpoints, and the single-file UI.
func serveUI(addr string, srv *api.Server, gm *game.Game, state *liveState) {
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", srv.Handler())
	mux.Handle("/metrics", srv.Handler())
	mux.HandleFunc("GET /game/state", func(w http.ResponseWriter, r *http.Request) {
		type point struct {
			Lo, Hi            float64
			Obstacle, AutoPil bool
		}
		ticks := state.snapshot()
		for i := range ticks {
			// Open points carry +Inf bounds, which JSON cannot encode.
			if math.IsInf(ticks[i].Hi, 1) {
				ticks[i].Hi = 0
			}
		}
		course := make([]point, len(state.course.Points))
		for i, p := range state.course.Points {
			hi := p.Hi
			if math.IsInf(hi, 1) {
				hi = 0
			}
			course[i] = point{Lo: p.Lo, Hi: hi, Obstacle: p.Obstacle, AutoPil: p.AutoPilot}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"course": course,
			"ticks":  ticks,
			"target": gm.Target(),
		})
	})
	mux.HandleFunc("POST /game/jump", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Delta float64 `json:"delta"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		if req.Delta <= 0 {
			req.Delta = 100
		}
		gm.Controls().Jump(req.Delta)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(indexHTML))
	})
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintln(os.Stderr, "benchpress: http:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpress:", err)
	os.Exit(1)
}
