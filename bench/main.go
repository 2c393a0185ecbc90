// Command bench is the repository's one benchmark: four workloads driven
// through core.Manager at frozen target rates, end-to-end metrics from an
// untraced run and per-layer metrics from a traced one, every layer measured
// from outside. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 16

// meta is the conditions every number carries.
type meta struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Terminals  int     `json:"terminals"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
}

// report is what -out writes and -compare reads.
type report struct {
	Meta    meta      `json:"meta"`
	Results []*result `json:"results"`
}

// commit is the revision under test: what run.sh found, or what the go tool
// stamped into the binary.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed for the data and the transaction parameters")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per run, split 30% sat, 30% lo, 40% hi")
	trace := fs.Int("trace", 2, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; 2: both")
	out := fs.String("out", "", "also write the results to this JSON file (the input of -compare)")
	smoke := fs.Bool("smoke", false, "tiny scales, one measured second, quarter rates: checks the harness, not the system")
	compare := fs.Bool("compare", false, "compare two -out files, a.json then b.json, against the bounds in -spec")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds for -compare")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two files, got %d", fs.NArg())
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	c := config{seed: *seed, seconds: *seconds, smoke: *smoke}
	if *smoke && *seconds == defaultSeconds {
		c.seconds = 1
	}
	if c.seconds <= 0 || *trace < 0 || *trace > 2 {
		return fmt.Errorf("-seconds must be positive and -trace 0, 1 or 2")
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		todo = []workload{w}
	}
	rep := report{Meta: meta{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Terminals: terminals,
		GoVersion: runtime.Version(), Commit: commit(), Seed: c.seed, Seconds: c.seconds, Smoke: c.smoke,
	}}
	fmt.Printf("# nproc %d, GOMAXPROCS %d, terminals %d, %s, commit %s, seed %d, %g s measured per run\n",
		rep.Meta.NProc, rep.Meta.GOMAXPROCS, terminals, rep.Meta.GoVersion, rep.Meta.Commit, c.seed, c.seconds)
	for _, w := range todo {
		if *trace != 1 {
			r, err := runUntraced(w, c)
			if err != nil {
				return err
			}
			r.print(endToEnd)
			rep.Results = append(rep.Results, r)
		}
		if *trace != 0 {
			r, err := runTraced(w, c)
			if err != nil {
				return err
			}
			r.print(perLayer)
			rep.Results = append(rep.Results, r)
		}
	}
	if *trace == 2 {
		rep.reconcile()
	}
	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(rep.Results) == 1 {
		// The last line of a single run is the machine-readable result.
		r := rep.Results[0]
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// print writes every metric by name with its unit, then the notes.
func (r *result) print(defs []metricDef) {
	mode := "untraced"
	if r.Trace == 1 {
		mode = "traced"
	}
	fmt.Printf("== %s (%s)\n", r.Workload, mode)
	for _, d := range defs {
		fmt.Printf("%-28s %16.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, n := range r.Notes {
		fmt.Println("#", n)
	}
}

// reconcile prints, for each workload run both ways, how far the traced
// run's median transaction (due to end, from the spans) is from the untraced
// run's lat_p50_us.hi. The two are separate runs, so this is a reading, not
// an identity: the identities are checked span by span in the traced run.
func (rep *report) reconcile() {
	for i := 0; i+1 < len(rep.Results); i += 2 {
		u, t := rep.Results[i], rep.Results[i+1]
		a, b := u.Metrics["lat_p50_us.hi"].Value, t.Metrics["trace.txn_us.p50"].Value
		verdict := "within 5%"
		if dev := 100 * (b - a) / a; dev > 5 || dev < -5 {
			verdict = "MORE THAN 5% APART"
		}
		fmt.Printf("# %s: traced txn p50 %.2f us vs untraced lat_p50_us.hi %.2f us: %s\n", u.Workload, b, a, verdict)
	}
}
