package common

import (
	"math/rand"
	"testing"
	"testing/quick"

	"benchpress/internal/dbdriver"
)

func TestUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prop := func(a, b int16) bool {
		lo, hi := int64(a), int64(b)
		if hi < lo {
			lo, hi = hi, lo
		}
		v := Uniform(rng, lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if Uniform(rng, 5, 5) != 5 {
		t.Fatal("degenerate range")
	}
}

func TestNURandBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		v := NURand(rng, 8191, 1, 100000)
		if v < 1 || v > 100000 {
			t.Fatalf("NURand out of range: %d", v)
		}
	}
	// The bitwise-OR construction concentrates probability on values whose
	// low bits are set (e.g. the all-ones byte pattern): the most frequent
	// single value must far exceed the uniform expectation.
	counts := make(map[int64]int)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[NURand(rng, 255, 0, 999)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniformExpect := draws / 1000
	if max < 5*uniformExpect {
		t.Fatalf("NURand looks uniform: hottest value seen %d times (uniform ~%d)", max, uniformExpect)
	}
}

func TestLastName(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Fatalf("LastName(0) = %q", LastName(0))
	}
	if LastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("LastName(371) = %q", LastName(371))
	}
	if LastName(1371) != LastName(371) {
		t.Fatal("LastName must wrap at 1000")
	}
	if LastName(999) != "EINGEINGEING" {
		t.Fatalf("LastName(999) = %q", LastName(999))
	}
}

func TestStringGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		s := AString(rng, 5, 10)
		if len(s) < 5 || len(s) > 10 {
			t.Fatalf("AString length %d", len(s))
		}
		n := NString(rng, 4, 4)
		if len(n) != 4 {
			t.Fatalf("NString length %d", len(n))
		}
		for _, c := range n {
			if c < '0' || c > '9' {
				t.Fatalf("NString non-digit %q", n)
			}
		}
	}
	if txt := Text(rng, 20); len(txt) == 0 {
		t.Fatal("empty text")
	}

	// Exact uniformity per alphabet: a chi-square over 200 000 characters
	// stays under the 0.1% critical value for its degrees of freedom (a
	// modulo instead of the rejection of out-of-range chunks fails it).
	gens := []struct {
		name     string
		gen      func(*rand.Rand, int, int) string
		alphabet string
		crit     float64 // chi-square, p = 0.001, len(alphabet)-1 df
	}{
		{"AString", AString, alphanum, 100.9},
		{"LString", LString, letters, 52.62},
		{"NString", NString, digits, 27.88},
	}
	for _, g := range gens {
		rng := rand.New(rand.NewSource(11))
		counts := map[rune]int{}
		total := 0
		for total < 200000 {
			for _, c := range g.gen(rng, 1, 40) {
				counts[c]++
				total++
			}
		}
		chi2 := 0.0
		want := float64(total) / float64(len(g.alphabet))
		for _, c := range g.alphabet {
			d := float64(counts[c]) - want
			chi2 += d * d / want
			delete(counts, c)
		}
		if len(counts) != 0 {
			t.Fatalf("%s drew characters outside its alphabet: %v", g.name, counts)
		}
		if chi2 > g.crit {
			t.Fatalf("%s: chi-square %.1f over %d characters exceeds %.1f", g.name, chi2, total, g.crit)
		}
		// The same seed gives the same strings.
		a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		for i := 0; i < 50; i++ {
			if x, y := g.gen(a, 0, 30), g.gen(b, 0, 30); x != y {
				t.Fatalf("%s: seed 5 drew %q then %q", g.name, x, y)
			}
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	z := NewZipfian(1000, 0.99)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		v := z.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Key 0 must be the clear hot spot.
	if counts[0] < counts[500]*10 {
		t.Fatalf("zipf not skewed: head=%d mid=%d", counts[0], counts[500])
	}
}

func TestScrambledZipfianSpreads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewScrambledZipfian(1000)
	counts := make(map[int64]int)
	for i := 0; i < 50000; i++ {
		v := s.Next(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("scrambled zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Scrambling must move the hot spot away from key 0 (with high
	// probability) while keeping skew: some key should dominate.
	var hot int64
	for k, c := range counts {
		if c > counts[hot] {
			hot = k
		}
	}
	if counts[hot] < 5000 {
		t.Fatalf("no hot key after scrambling: max=%d", counts[hot])
	}
}

func TestLatestBiasesToRecent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLatest(10000)
	recent, old := 0, 0
	for i := 0; i < 10000; i++ {
		v := l.Next(rng, 10000)
		if v < 0 || v >= 10000 {
			t.Fatalf("latest out of range: %d", v)
		}
		if v >= 9000 {
			recent++
		} else if v < 1000 {
			old++
		}
	}
	if recent < old*5 {
		t.Fatalf("latest not biased: recent=%d old=%d", recent, old)
	}
}

func TestScaleCount(t *testing.T) {
	if ScaleCount(1000, 0.5, 10) != 500 {
		t.Fatal("scale")
	}
	if ScaleCount(1000, 0.001, 10) != 10 {
		t.Fatal("floor")
	}
}

func TestLoaderBatches(t *testing.T) {
	db, err := dbdriver.Open("gomvcc")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.Connect()
	if _, err := c.Exec("CREATE TABLE x (a INT NOT NULL, PRIMARY KEY (a))"); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(db, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 35; i++ {
		if err := l.Exec("INSERT INTO x (a) VALUES (?)", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Rows() != 35 {
		t.Fatalf("rows = %d", l.Rows())
	}
	cnt, _ := c.QueryRow("SELECT COUNT(*) FROM x")
	if cnt[0].Int() != 35 {
		t.Fatalf("count = %v", cnt)
	}
}
