package rules_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"benchpress/internal/analysis"
	"benchpress/internal/analysis/rules"
)

// fixtureCases pairs every rule with its true-positive and true-negative
// fixtures and the synthetic import path the fixture is loaded under (rules
// scope themselves by module-relative path).
var fixtureCases = []struct {
	rule    analysis.Rule
	bad     string
	good    string
	pkgPath string
}{
	{rules.AtomicConsistency{}, "atomic_bad.go", "atomic_good.go", "benchpress/internal/fixture"},
	{rules.TxnHygiene{}, "txn_bad.go", "txn_good.go", "benchpress/internal/fixture"},
	{rules.PinLeak{}, "pinleak_bad.go", "pinleak_good.go", "benchpress/internal/fixture"},
	{rules.PreparedStmtLeak{}, "preparedleak_bad.go", "preparedleak_good.go", "benchpress/internal/fixture"},
	{rules.ErrorDiscard{}, "errdiscard_bad.go", "errdiscard_good.go", "benchpress/internal/fixture"},
	{rules.ErrorSink{}, "errsink_bad.go", "errsink_good.go", "benchpress/internal/fixture"},
	{rules.LatchOrder{}, "latch_bad.go", "latch_good.go", "benchpress/internal/fixture"},
	{rules.DialectBoundary{}, "boundary_bad.go", "boundary_good.go", "benchpress/internal/benchmarks/fixture"},
	{rules.BareGoroutine{}, "goroutine_bad.go", "goroutine_good.go", "benchpress/internal/fixture"},
	{rules.MixParity{}, "mixparity_bad.go", "mixparity_good.go", "benchpress/internal/benchmarks/fixture"},
	{rules.PhaseOrder{}, "phaseorder_bad.go", "phaseorder_good.go", "benchpress/internal/fixture"},
	{rules.StatsWindowLock{}, "statswindow_bad.go", "statswindow_good.go", "benchpress/internal/stats/fixture"},
	{rules.HotpathAlloc{}, "hotpathalloc_bad.go", "hotpathalloc_good.go", "benchpress/internal/sqldb/exec"},
}

func TestRuleFixtures(t *testing.T) {
	// A rule added to All() without an entry here would be silently untested.
	covered := map[string]bool{}
	for _, tc := range fixtureCases {
		covered[tc.rule.Name()] = true
	}
	for _, r := range rules.All() {
		if !covered[r.Name()] {
			t.Errorf("rule %s has no single-file fixtures in fixtureCases", r.Name())
		}
	}
	for _, tc := range fixtureCases {
		tc := tc
		t.Run(tc.rule.Name(), func(t *testing.T) {
			t.Parallel()
			bad := runFixture(t, tc.rule, tc.bad, tc.pkgPath)
			if len(bad) == 0 {
				t.Errorf("%s: failing fixture %s produced no diagnostics", tc.rule.Name(), tc.bad)
			}
			good := runFixtureNoWants(t, tc.rule, tc.good, tc.pkgPath)
			for _, d := range good {
				t.Errorf("%s: clean fixture %s produced diagnostic: %s", tc.rule.Name(), tc.good, d)
			}
		})
	}
}

// TestErrorDiscardScopedToInternalAndCmd checks the rule goes quiet outside
// its layer.
func TestErrorDiscardScopedToInternalAndCmd(t *testing.T) {
	diags := runFixtureNoWants(t, rules.ErrorDiscard{}, "errdiscard_bad.go", "benchpress/examples/fixture")
	if len(diags) != 0 {
		t.Errorf("error-discard fired outside internal/ and cmd/: %v", diags)
	}
}

// TestErrorSinkScopedToInternalAndCmd: sink discards outside internal/ and
// cmd/ (examples, tools) are deliberate and stay quiet.
func TestErrorSinkScopedToInternalAndCmd(t *testing.T) {
	diags := runFixtureNoWants(t, rules.ErrorSink{}, "errsink_bad.go", "benchpress/examples/fixture")
	if len(diags) != 0 {
		t.Errorf("error-sink fired outside internal/ and cmd/: %v", diags)
	}
}

// TestBareGoroutineScopedToInternal likewise.
func TestBareGoroutineScopedToInternal(t *testing.T) {
	diags := runFixtureNoWants(t, rules.BareGoroutine{}, "goroutine_bad.go", "benchpress/examples/fixture")
	if len(diags) != 0 {
		t.Errorf("bare-goroutine fired outside internal/: %v", diags)
	}
}

// TestDialectBoundaryScopedToBenchmarks: the same forbidden imports are
// legal outside internal/benchmarks/.
func TestDialectBoundaryScopedToBenchmarks(t *testing.T) {
	diags := runFixtureNoWants(t, rules.DialectBoundary{}, "boundary_bad.go", "benchpress/internal/experiments")
	if len(diags) != 0 {
		t.Errorf("dialect-boundary fired outside internal/benchmarks/: %v", diags)
	}
}

// TestMixParityScopedToBenchmarks: the rule is silent outside
// internal/benchmarks/.
func TestMixParityScopedToBenchmarks(t *testing.T) {
	diags := runFixtureNoWants(t, rules.MixParity{}, "mixparity_bad.go", "benchpress/internal/fixture")
	if len(diags) != 0 {
		t.Errorf("mix-parity fired outside internal/benchmarks/: %v", diags)
	}
}

// TestStatsWindowLockScopedToStats: the guarded-field convention only binds
// inside internal/stats; the same code elsewhere is silent.
func TestStatsWindowLockScopedToStats(t *testing.T) {
	diags := runFixtureNoWants(t, rules.StatsWindowLock{}, "statswindow_bad.go", "benchpress/internal/fixture")
	if len(diags) != 0 {
		t.Errorf("stats-window-lock fired outside internal/stats/: %v", diags)
	}
}

func TestLookup(t *testing.T) {
	for _, r := range rules.All() {
		if got := rules.Lookup(r.Name()); got == nil {
			t.Errorf("Lookup(%q) = nil", r.Name())
		}
	}
	if rules.Lookup("no-such-rule") != nil {
		t.Error("Lookup of unknown rule returned a rule")
	}
}

// runFixture loads testdata/<name> as a single-file package inside a
// synthetic "benchpress" module, runs one rule, checks the diagnostics
// against the fixture's `// want "substring"` comments, and returns them.
func runFixture(t *testing.T, rule analysis.Rule, name, pkgPath string) []analysis.Diagnostic {
	t.Helper()
	src, diags := loadAndRun(t, rule, name, pkgPath)
	wants := parseWants(src)
	matched := map[int]bool{}
	for _, d := range diags {
		ok := false
		for _, w := range wants[d.Pos.Line] {
			if strings.Contains(d.Message, w) {
				ok = true
				break
			}
		}
		if ok {
			matched[d.Pos.Line] = true
		} else {
			t.Errorf("%s: unexpected diagnostic at line %d: %s", name, d.Pos.Line, d.Message)
		}
	}
	for line := range wants {
		if !matched[line] {
			t.Errorf("%s: expected diagnostic at line %d (want %q), got none", name, line, wants[line])
		}
	}
	return diags
}

// runFixtureNoWants runs a rule over a fixture ignoring its want comments
// (used for scope tests, where the same file must produce nothing).
func runFixtureNoWants(t *testing.T, rule analysis.Rule, name, pkgPath string) []analysis.Diagnostic {
	t.Helper()
	_, diags := loadAndRun(t, rule, name, pkgPath)
	return diags
}

func loadAndRun(t *testing.T, rule analysis.Rule, name, pkgPath string) (string, []analysis.Diagnostic) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	writeStubs(t, tmp)
	rel := strings.TrimPrefix(pkgPath, "benchpress/")
	writeFile(t, tmp, filepath.Join(rel, "fixture.go"), string(data))

	loader, err := analysis.NewLoader(tmp)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("fixture %s does not type-check: %v", name, terr)
	}
	return string(data), analysis.Run([]*analysis.Package{pkg}, []analysis.Rule{rule})
}

// writeStubs lays down a synthetic "benchpress" module with stubs of the
// packages fixtures import, so every fixture type-checks hermetically.
func writeStubs(t *testing.T, tmp string) {
	t.Helper()
	writeFile(t, tmp, "go.mod", "module benchpress\n\ngo 1.22\n")
	writeFile(t, tmp, "internal/sqldb/sqldb.go",
		"// Package sqldb is a fixture stub.\npackage sqldb\n\n// Engine is a stub of the storage engine.\ntype Engine struct{}\n")
	writeFile(t, tmp, "internal/sqldb/txn/txn.go",
		"// Package txn is a fixture stub.\npackage txn\n\n// Mode is a stub.\ntype Mode int\n")
	writeFile(t, tmp, "internal/dbdriver/driver.go",
		"// Package dbdriver is a fixture stub.\npackage dbdriver\n\n// Conn is a stub connection.\ntype Conn struct{}\n")
	writeFile(t, tmp, "internal/core/core.go", `// Package core is a fixture stub.
package core

import "time"

// Phase is a stub of the workload phase descriptor.
type Phase struct {
	Duration    time.Duration
	Rate        float64
	Mix         []float64
	Exponential bool
	ThinkTime   time.Duration
}

// Options is a stub.
type Options struct{ Terminals int }

// Manager is a stub.
type Manager struct{}

// NewManager is a stub of the workload manager constructor.
func NewManager(b, db any, phases []Phase, opts Options) *Manager { return &Manager{} }
`)
}

func writeFile(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

// parseWants extracts `// want "substring"` expectations per line.
func parseWants(src string) map[int][]string {
	wants := map[int][]string{}
	for i, line := range strings.Split(src, "\n") {
		for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
			wants[i+1] = append(wants[i+1], m[1])
		}
	}
	return wants
}

// TestCrossPackageFixtures proves every rule's interprocedural behavior on a
// two-package module: testdata/xpkg/<rule>/ holds module-relative .go files
// spanning at least two packages, seeded with `// want` findings that only
// fire (or only stay quiet) when facts flow across the package boundary.
func TestCrossPackageFixtures(t *testing.T) {
	for _, r := range rules.All() {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			t.Parallel()
			runXpkgFixture(t, r)
		})
	}
}

// runXpkgFixture copies testdata/xpkg/<rule>/ into a synthetic module,
// type-checks and runs the one rule over every fixture package with the full
// program in view, and matches diagnostics against per-file want comments.
func runXpkgFixture(t *testing.T, rule analysis.Rule) {
	t.Helper()
	root := filepath.Join("testdata", "xpkg", rule.Name())
	if _, err := os.Stat(root); err != nil {
		t.Fatalf("rule %s has no cross-package fixture tree: %v", rule.Name(), err)
	}

	tmp := t.TempDir()
	writeStubs(t, tmp)

	// Copy the fixture tree, collecting want expectations keyed by
	// module-relative path and the set of package directories it spans.
	wants := map[string]map[int][]string{} // rel file -> line -> substrings
	dirs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		writeFile(t, tmp, rel, string(data))
		if w := parseWants(string(data)); len(w) > 0 {
			wants[rel] = w
		}
		dirs[pathDir(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 2 {
		t.Fatalf("cross-package fixture for %s spans %d package(s), want >= 2", rule.Name(), len(dirs))
	}

	loader, err := analysis.NewLoader(tmp)
	if err != nil {
		t.Fatal(err)
	}
	var targets []*analysis.Package
	for _, dir := range sortedKeys(dirs) {
		pkg, err := loader.Load("benchpress/" + dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("fixture package %s does not type-check: %v", dir, terr)
		}
		targets = append(targets, pkg)
	}

	prog := analysis.NewProgram(loader.Loaded())
	diags := analysis.RunProgram(prog, targets, []analysis.Rule{rule})

	matched := map[string]map[int]bool{}
	for _, d := range diags {
		rel, err := filepath.Rel(tmp, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		ok := false
		for _, w := range wants[rel][d.Pos.Line] {
			if strings.Contains(d.Message, w) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s", rel, d.Pos.Line, d.Message)
			continue
		}
		if matched[rel] == nil {
			matched[rel] = map[int]bool{}
		}
		matched[rel][d.Pos.Line] = true
	}
	total := 0
	for rel, byLine := range wants {
		for line := range byLine {
			total++
			if !matched[rel][line] {
				t.Errorf("expected diagnostic at %s:%d (want %q), got none", rel, line, byLine[line])
			}
		}
	}
	if total == 0 {
		t.Errorf("cross-package fixture for %s seeds no want expectations", rule.Name())
	}
}

func pathDir(rel string) string {
	if i := strings.LastIndex(rel, "/"); i >= 0 {
		return rel[:i]
	}
	return "."
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Ensure fixture diagnostics render with positions (smoke test for the
// Diagnostic formatting contract used by benchlint output).
func TestDiagnosticRendering(t *testing.T) {
	_, diags := loadAndRun(t, rules.ErrorDiscard{}, "errdiscard_bad.go", "benchpress/internal/fixture")
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	s := diags[0].String()
	if !strings.Contains(s, "fixture.go:") || !strings.Contains(s, "[error-discard]") {
		t.Errorf("unexpected rendering: %s", fmt.Sprintf("%q", s))
	}
}
