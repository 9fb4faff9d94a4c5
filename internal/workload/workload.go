// Package workload provides the key/value and request-distribution
// generators behind the db_bench and YCSB style benchmarks (paper §VII-A:
// "the built-in benchmark of LevelDB, db_bench, and YCSB benchmark are
// used"), paper Table IX's mixes, and the one op loop, Run, that drives a
// Target with them. Generators are deterministic given a seed.
//
// The package imports only the standard library: the store and the wire
// client reach Run through adapters in cmd/internal/target, so store tests
// can use the generators without an import cycle.
package workload

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// KeyGen produces fixed-width keys for a chosen ordering.
type KeyGen struct {
	Width int
	buf   []byte
}

// NewKeyGen returns a generator of width-byte keys (paper default: 16).
func NewKeyGen(width int) *KeyGen {
	if width < 8 {
		width = 8
	}
	return &KeyGen{Width: width, buf: make([]byte, width)}
}

// Key renders index i as a zero-padded big-endian decimal key, so numeric
// order equals lexicographic order. The returned slice is reused.
func (g *KeyGen) Key(i uint64) []byte {
	for p := range g.buf {
		g.buf[p] = '0'
	}
	pos := g.Width - 1
	for i > 0 && pos >= 0 {
		g.buf[pos] = byte('0' + i%10)
		i /= 10
		pos--
	}
	return g.buf
}

// ValueGen produces values with a target compressibility, like db_bench's
// RandomGenerator: a large pseudo-random buffer built from repeated
// snippets, sliced per request.
type ValueGen struct {
	data []byte
	pos  int
	size int
}

// NewRand returns the deterministic stream the generators draw from.
// Passing one shared stream to several *Rand constructors makes an entire
// benchmark run a function of a single seed; the seed-taking constructors
// below each derive an independent stream instead.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// NewValueGen returns a generator of size-byte values whose snappy
// compression ratio is roughly ratio (0.5 matches db_bench's default).
func NewValueGen(size int, ratio float64, seed int64) *ValueGen {
	return NewValueGenRand(size, ratio, NewRand(seed))
}

// NewValueGenRand is NewValueGen drawing from an injected stream.
func NewValueGenRand(size int, ratio float64, rng *rand.Rand) *ValueGen {
	if size < 1 {
		size = 1
	}
	if ratio <= 0 || ratio > 1 {
		ratio = 0.5
	}
	// Compose ~1 MiB from snippets of length raw = 100*ratio repeated to
	// 100 bytes, the db_bench trick for tunable compressibility.
	raw := int(100 * ratio)
	if raw < 1 {
		raw = 1
	}
	var data []byte
	for len(data) < 1<<20 {
		snippet := make([]byte, raw)
		for i := range snippet {
			snippet[i] = byte(' ' + rng.Intn(95))
		}
		for len(snippet) < 100 {
			snippet = append(snippet, snippet[:min(raw, 100-len(snippet))]...)
		}
		data = append(data, snippet...)
	}
	return &ValueGen{data: data, size: size}
}

// Value returns the next value slice. The slice aliases the generator's
// buffer and is valid until the next call.
func (v *ValueGen) Value() []byte {
	if v.pos+v.size > len(v.data) {
		v.pos = 0
	}
	out := v.data[v.pos : v.pos+v.size]
	v.pos += v.size + 7
	if v.pos >= len(v.data)-v.size {
		v.pos %= 97
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Sequence yields key indices for a request distribution.
type Sequence interface {
	// Next returns the next key index in [0, N).
	Next() uint64
}

// Sequential counts 0,1,2,... (db_bench fillseq).
type Sequential struct{ next uint64 }

// Next implements Sequence.
func (s *Sequential) Next() uint64 {
	i := s.next
	s.next++
	return i
}

// Uniform samples uniformly from [0, N).
type Uniform struct {
	N   uint64
	rng *rand.Rand
}

// NewUniform returns a uniform sampler over [0, n).
func NewUniform(n uint64, seed int64) *Uniform {
	return NewUniformRand(n, NewRand(seed))
}

// NewUniformRand is NewUniform drawing from an injected stream.
func NewUniformRand(n uint64, rng *rand.Rand) *Uniform {
	return &Uniform{N: n, rng: rng}
}

// Next implements Sequence.
func (u *Uniform) Next() uint64 { return uint64(u.rng.Int63n(int64(u.N))) }

// Zipfian samples from a zipfian distribution over [0, N) using the
// Gray et al. rejection-free method, as in the YCSB reference client.
type Zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	rng   *rand.Rand
	// scramble spreads popular items across the key space, as YCSB's
	// ScrambledZipfian does, so hot keys are not all adjacent.
	scramble bool
}

// ZipfianTheta is YCSB's default skew.
const ZipfianTheta = 0.99

// NewZipfian returns a scrambled zipfian sampler over [0, n).
func NewZipfian(n uint64, seed int64) *Zipfian {
	return NewZipfianRand(n, NewRand(seed))
}

// NewZipfianRand is NewZipfian drawing from an injected stream.
func NewZipfianRand(n uint64, rng *rand.Rand) *Zipfian {
	z := &Zipfian{n: n, theta: ZipfianTheta, rng: rng, scramble: true}
	z.zetan = zeta(n, z.theta)
	z.alpha = 1 / (1 - z.theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-z.theta)) / (1 - zeta(2, z.theta)/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	// Exact for small n; approximate by integral beyond a cutoff to keep
	// construction O(1)-ish for huge key spaces.
	const cutoff = 1 << 20
	var sum float64
	m := n
	if m > cutoff {
		m = cutoff
	}
	for i := uint64(1); i <= m; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > m {
		// ∫ x^-theta dx from m to n.
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(m), 1-theta)) / (1 - theta)
	}
	return sum
}

// Next implements Sequence.
func (z *Zipfian) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	if z.scramble {
		return fnv64(rank) % z.n
	}
	return rank
}

// Latest favors recently inserted keys (YCSB's "latest" distribution):
// rank r from a zipfian is mapped to maxKey - r.
type Latest struct {
	z      *Zipfian
	MaxKey uint64
}

// NewLatest returns a latest-distribution sampler; call Observe as inserts
// grow the key space.
func NewLatest(n uint64, seed int64) *Latest {
	return NewLatestRand(n, NewRand(seed))
}

// NewLatestRand is NewLatest drawing from an injected stream.
func NewLatestRand(n uint64, rng *rand.Rand) *Latest {
	z := NewZipfianRand(n, rng)
	z.scramble = false
	return &Latest{z: z, MaxKey: n - 1}
}

// Observe advances the newest key index after an insert.
func (l *Latest) Observe(max uint64) {
	if max > l.MaxKey {
		l.MaxKey = max
	}
}

// Next implements Sequence.
func (l *Latest) Next() uint64 {
	r := l.z.Next()
	if r > l.MaxKey {
		return 0
	}
	return l.MaxKey - r
}

// fnv64 hashes x for key scrambling.
func fnv64(x uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Op is one client operation kind.
type Op int

// Operation kinds for mixed workloads.
const (
	OpRead Op = iota
	OpUpdate
	OpInsert
	OpScan
	OpRMW
	// OpDelete removes a key; no YCSB mix draws it (db_bench deleterandom).
	OpDelete
)

// Mix selects operations according to YCSB workload proportions.
type Mix struct {
	cum [5]float64
	rng *rand.Rand
}

// NewMix returns an operation chooser; fractions must sum to ~1.
func NewMix(read, update, insert, scan, rmw float64, seed int64) *Mix {
	return NewMixRand(read, update, insert, scan, rmw, NewRand(seed))
}

// NewMixRand is NewMix drawing from an injected stream.
func NewMixRand(read, update, insert, scan, rmw float64, rng *rand.Rand) *Mix {
	m := &Mix{rng: rng}
	m.cum[0] = read
	m.cum[1] = m.cum[0] + update
	m.cum[2] = m.cum[1] + insert
	m.cum[3] = m.cum[2] + scan
	m.cum[4] = m.cum[3] + rmw
	return m
}

// Next implements the operation choice.
func (m *Mix) Next() Op {
	u := m.rng.Float64() * m.cum[4]
	for i, c := range m.cum {
		if u < c {
			return Op(i)
		}
	}
	return OpRead
}

// Workload is one row of paper Table IX: the fractions of each operation
// kind (summing to 1) and the distribution keys are drawn from.
type Workload struct {
	Name                            string
	Read, Update, Insert, Scan, RMW float64
	// Latest draws keys from the latest distribution; otherwise they come
	// from the scrambled zipfian.
	Latest bool
}

// YCSB is Table IX in the paper's evaluation order: the load phase, then
// workloads A-F. cmd/ycsb runs these rows against the store and
// internal/lsmsim simulates them.
var YCSB = []Workload{
	{Name: "Load", Insert: 1},
	{Name: "A", Read: 0.5, Update: 0.5},
	{Name: "B", Read: 0.95, Update: 0.05},
	{Name: "C", Read: 1},
	{Name: "D", Read: 0.95, Insert: 0.05, Latest: true},
	{Name: "E", Scan: 0.95, Insert: 0.05},
	{Name: "F", Read: 0.5, RMW: 0.5},
}

// ScanLength is the entries one YCSB scan reads (YCSB's default).
const ScanLength = 50
