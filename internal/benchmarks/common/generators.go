// Package common provides the random-distribution and data-generation
// utilities shared by the benchmark ports: Zipfian and scrambled-Zipfian key
// choosers (YCSB), TPC-C's NURand and last-name generator, latest-biased
// choosers, and text/string generators for the web workloads.
package common

import (
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"time"
)

// Uniform returns an int64 uniformly in [lo, hi] inclusive.
func Uniform(rng *rand.Rand, lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	return lo + rng.Int63n(hi-lo+1)
}

// FlipCoin returns true with the given probability.
func FlipCoin(rng *rand.Rand, prob float64) bool { return rng.Float64() < prob }

// NURand implements TPC-C's non-uniform random function NURand(A, x, y)
// with a fixed C constant, biasing toward hot values.
func NURand(rng *rand.Rand, a, x, y int64) int64 {
	c := cConstant(a)
	return (((Uniform(rng, 0, a) | Uniform(rng, x, y)) + c) % (y - x + 1)) + x
}

// cConstant returns the per-A run constant for NURand.
func cConstant(a int64) int64 {
	switch a {
	case 255:
		return 87
	case 1023:
		return 101
	case 8191:
		return 1009
	default:
		return 42
	}
}

// cLastSyllables are TPC-C's last-name syllables.
var cLastSyllables = []string{
	"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
}

// LastName builds TPC-C's synthetic last name for a number in [0, 999].
func LastName(num int64) string {
	num %= 1000
	var b strings.Builder
	b.WriteString(cLastSyllables[num/100])
	b.WriteString(cLastSyllables[(num/10)%10])
	b.WriteString(cLastSyllables[num%10])
	return b.String()
}

// RandomLastName picks a last name with TPC-C's NURand(255) distribution.
func RandomLastName(rng *rand.Rand) string { return LastName(NURand(rng, 255, 0, 999)) }

const alphanum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
const letters = "abcdefghijklmnopqrstuvwxyz"
const digits = "0123456789"

// AString returns a random alphanumeric string with length in [lo, hi].
func AString(rng *rand.Rand, lo, hi int) string {
	return randString(rng, lo, hi, alphanum)
}

// NString returns a random numeric string with length in [lo, hi].
func NString(rng *rand.Rand, lo, hi int) string {
	return randString(rng, lo, hi, digits)
}

// LString returns a random lowercase string with length in [lo, hi].
func LString(rng *rand.Rand, lo, hi int) string {
	return randString(rng, lo, hi, letters)
}

// randString draws a length in [lo, hi], then each character uniformly from
// alphabet. Characters come from one rng.Uint64 at a time, cut into chunks
// of the alphabet's bit width (6 bits for alphanumerics: ten characters per
// draw); a chunk at or past len(alphabet) is skipped, which keeps every
// character exactly uniform.
func randString(rng *rand.Rand, lo, hi int, alphabet string) string {
	n := lo
	if hi > lo {
		n = lo + rng.Intn(hi-lo+1)
	}
	width := uint(bits.Len(uint(len(alphabet) - 1)))
	mask := uint64(1)<<width - 1
	var word uint64
	var left uint // unused bits in word
	b := make([]byte, n)
	for i := 0; i < n; {
		if left < width {
			word, left = rng.Uint64(), 64
		}
		c := word & mask
		word >>= width
		left -= width
		if c < uint64(len(alphabet)) {
			b[i] = alphabet[c]
			i++
		}
	}
	return string(b)
}

// words is a small lexicon for generating plausible document text.
var words = []string{
	"the", "database", "transaction", "workload", "benchmark", "throughput",
	"latency", "index", "query", "commit", "abort", "snapshot", "lock",
	"row", "table", "page", "buffer", "log", "replica", "shard", "tenant",
	"rate", "mixture", "phase", "driver", "client", "server", "system",
}

// Text generates n words of filler text.
func Text(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(words[rng.Intn(len(words))])
	}
	return b.String()
}

// RandomDate returns a time uniformly within the past year (relative to a
// fixed epoch so that loads are reproducible given a seeded rng).
func RandomDate(rng *rand.Rand) time.Time {
	epoch := time.Date(2015, 5, 31, 0, 0, 0, 0, time.UTC) // SIGMOD'15
	return epoch.Add(-time.Duration(rng.Int63n(int64(365 * 24 * time.Hour))))
}

// Shuffled returns a shuffled permutation of [0, n).
func Shuffled(rng *rand.Rand, n int) []int {
	p := rng.Perm(n)
	return p
}

// Zipfian generates Zipf-distributed values in [0, n) with the standard
// YCSB incremental algorithm (Gray et al.), theta defaulting to 0.99.
type Zipfian struct {
	n            int64
	theta        float64
	alpha        float64
	zetan, zeta2 float64
	eta          float64
}

// NewZipfian builds a Zipfian generator over [0, n).
func NewZipfian(n int64, theta float64) *Zipfian {
	if n < 1 {
		n = 1
	}
	z := &Zipfian{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n int64, theta float64) float64 {
	var sum float64
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next Zipf value in [0, n), skewed toward 0.
func (z *Zipfian) Next(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// ScrambledZipfian spreads Zipfian hot spots across the key space with a
// hash, as YCSB does, so hot keys are not clustered.
type ScrambledZipfian struct {
	z *Zipfian
	n int64
}

// NewScrambledZipfian builds a scrambled Zipfian over [0, n).
func NewScrambledZipfian(n int64) *ScrambledZipfian {
	return &ScrambledZipfian{z: NewZipfian(n, 0.99), n: n}
}

// Next draws the next scrambled value in [0, n).
func (s *ScrambledZipfian) Next(rng *rand.Rand) int64 {
	v := s.z.Next(rng)
	return int64(fnvHash64(uint64(v)) % uint64(s.n))
}

// fnvHash64 is the FNV-1a hash of an integer's bytes.
func fnvHash64(v uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// Latest draws keys biased toward the most recently inserted (largest)
// values, as YCSB's latest distribution.
type Latest struct {
	z *Zipfian
}

// NewLatest builds a latest-biased chooser over [0, n).
func NewLatest(n int64) *Latest {
	return &Latest{z: NewZipfian(n, 0.99)}
}

// Next draws a key in [0, max) biased toward max-1.
func (l *Latest) Next(rng *rand.Rand, max int64) int64 {
	if max < 1 {
		return 0
	}
	v := l.z.Next(rng)
	if v >= max {
		v = v % max
	}
	return max - 1 - v
}

// ScaleCount applies a scale factor to a base cardinality with a floor.
func ScaleCount(base int, scale float64, floor int) int {
	n := int(float64(base) * scale)
	if n < floor {
		n = floor
	}
	return n
}
