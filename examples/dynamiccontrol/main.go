// Dynamiccontrol: drive a running workload through the RESTful control API
// (the paper's Section 2.2.4): sweep the target rate through a sinusoid,
// flip the mixture to read-only halfway, and read instantaneous feedback -
// everything an external controller (or the BenchPress game) does.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"benchpress/internal/api"
	_ "benchpress/internal/benchmarks/all"
	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
)

func main() {
	// Launch a workload with one long phase; the API will steer it.
	bench, err := core.NewBenchmark("ycsb", 0.2)
	if err != nil {
		log.Fatal(err)
	}
	db, err := dbdriver.Open("golock")
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := core.Prepare(bench, db, 7); err != nil {
		log.Fatal(err)
	}
	m := core.NewManager(bench, db, []core.Phase{{Duration: time.Hour, Rate: 500}},
		core.Options{Terminals: 8, Name: "steered"})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)

	// Expose it over the control API (in-process HTTP for the example).
	srv := httptest.NewServer(api.NewServer(nil, m).Handler())
	defer srv.Close()
	fmt.Println("control API at", srv.URL)

	workload := srv.URL + "/api/v1/workloads/steered"
	// decode ends the example on a failed call, a non-2xx reply or an
	// undecodable body, so a broken call never prints a row of zeros.
	decode := func(resp *http.Response, err error, out any) {
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		call := resp.Request.Method + " " + resp.Request.URL.Path
		if resp.StatusCode/100 != 2 {
			msg, _ := io.ReadAll(resp.Body)
			log.Fatalf("%s: %s: %s", call, resp.Status, bytes.TrimSpace(msg))
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatalf("%s: decode reply: %v", call, err)
		}
	}
	post := func(path string, body any) {
		buf, err := json.Marshal(body)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.Post(workload+path, "application/json", bytes.NewReader(buf))
		var reply json.RawMessage
		decode(resp, err, &reply)
	}
	status := func() api.StatusResponse {
		resp, err := http.Get(workload)
		var st api.StatusResponse
		decode(resp, err, &st)
		return st
	}

	// Sweep a sinusoidal rate for 12 seconds; flip to the read-only preset
	// at the halfway point and back to default near the end.
	const seconds = 12
	fmt.Println("sec   target   measured   avg-lat-ms   mix")
	for s := 0; s < seconds; s++ {
		target := 1500 + 1000*math.Sin(2*math.Pi*float64(s)/8)
		post("/rate", map[string]any{"tps": target})
		switch s {
		case seconds / 2:
			post("/mixture", map[string]any{"preset": "readonly"})
		case seconds - 2:
			post("/mixture", map[string]any{"preset": "default"})
		}
		time.Sleep(time.Second)
		st := status()
		mixName := "default"
		if st.Mix[0] > 90 {
			mixName = "read-only"
		}
		fmt.Printf("%3d %8.0f %10.0f %12.2f   %s\n", s, target, st.TPS, st.AvgLatMS, mixName)
	}
	st := status()
	fmt.Printf("\nfinal: committed=%d aborted=%d errors=%d\n", st.Committed, st.Aborted, st.Errors)
}
