package api

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// routeSpan matches a documented route inside a backtick code span, with
// optional combined verbs: `GET /api/v1/workloads` or
// `GET | POST /api/v1/workloads/{name}/rate`.
var routeSpan = regexp.MustCompile("`((?:GET|POST|PUT|PATCH|DELETE)(?: \\| (?:GET|POST|PUT|PATCH|DELETE))*) (/[^`]*)`")

// docRoutes parses API.md and returns two sets of "METHOD /path" strings:
// the Route index table rows, and every route span anywhere in the document
// (section headings, prose). Combined verbs are expanded and query-string
// suffixes stripped.
func docRoutes(t *testing.T) (index, prose map[string]bool) {
	t.Helper()
	data, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	index, prose = map[string]bool{}, map[string]bool{}
	inIndex := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			inIndex = strings.HasPrefix(line, "## Route index")
		}
		for _, m := range routeSpan.FindAllStringSubmatch(line, -1) {
			path := m[2]
			if i := strings.IndexByte(path, '?'); i >= 0 {
				path = path[:i]
			}
			for _, verb := range strings.Split(m[1], " | ") {
				key := verb + " " + path
				prose[key] = true
				if inIndex {
					index[key] = true
				}
			}
		}
	}
	return index, prose
}

// registeredRoutes returns "METHOD /pattern" for every route the server
// registers.
func registeredRoutes(s *Server) map[string]bool {
	got := map[string]bool{}
	for _, rt := range s.Routes() {
		got[rt.Method+" "+rt.Pattern] = true
	}
	return got
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRouteDocParity holds API.md's Route index and the route table in
// internal/api/routes.go in exact sync, in both directions: an endpoint
// cannot exist undocumented, and documentation cannot reference an
// endpoint that is not registered.
func TestRouteDocParity(t *testing.T) {
	index, prose := docRoutes(t)
	registered := registeredRoutes(NewServer(nil))
	if len(index) == 0 {
		t.Fatal("API.md Route index parsed to zero routes")
	}

	for _, key := range sortedKeys(registered) {
		if !index[key] {
			t.Errorf("undocumented route: %s is registered but missing from the API.md Route index", key)
		}
	}
	for _, key := range sortedKeys(index) {
		if !registered[key] {
			t.Errorf("phantom documentation: API.md Route index lists %s but the server does not register it", key)
		}
	}
	// Any route mentioned in prose (section headings, examples) must exist
	// too — catches stale references after a rename.
	for _, key := range sortedKeys(prose) {
		if !registered[key] {
			t.Errorf("stale reference: API.md mentions %s but the server does not register it", key)
		}
	}
}

// TestDocumentedRoutesResolve walks every documented route against the
// actual mux: with placeholders substituted, each must resolve to its own
// registered pattern — not the catch-all 404 or a method-less fallback.
func TestDocumentedRoutesResolve(t *testing.T) {
	index, _ := docRoutes(t)
	mux, ok := NewServer(nil).Handler().(*http.ServeMux)
	if !ok {
		t.Fatal("Handler is not a *http.ServeMux")
	}
	fill := strings.NewReplacer("{name}", "w1", "{id}", "p1")
	for _, key := range sortedKeys(index) {
		method, pattern, _ := strings.Cut(key, " ")
		req := httptest.NewRequest(method, fill.Replace(pattern), nil)
		_, got := mux.Handler(req)
		want := method + " " + pattern
		if got != want {
			t.Errorf("%s resolves to %q, want %q", key, got, want)
		}
	}
}
