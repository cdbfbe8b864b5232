package main

import (
	"math"
	"math/rand/v2"
	"slices"
)

// zipf draws indexes in [0, n) with the YCSB zipfian generator (Gray et
// al.), so θ may be below 1; θ = 0 draws uniformly. Index 0 is hottest.
type zipf struct {
	n                   int
	theta, alpha, eta   float64
	zetan, halfPowTheta float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: n, theta: theta}
	if theta == 0 {
		return z
	}
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z.zetan = zeta(n)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.halfPowTheta = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) next(r *rand.Rand) int {
	if z.theta == 0 {
		return r.IntN(z.n)
	}
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	i := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if i >= z.n {
		i = z.n - 1
	}
	return i
}

// reservoir keeps a uniform sample of at most cap(buf) latencies (ns),
// preallocated so recording allocates nothing. Its own generator keeps the
// op stream independent of how many samples were taken.
type reservoir struct {
	buf []uint32
	n   uint64
	rng *rand.Rand
}

const reservoirCap = 1 << 18

func newReservoir(seed uint64) reservoir {
	return reservoir{buf: make([]uint32, 0, reservoirCap), rng: rand.New(rand.NewPCG(seed, 0x5eed))}
}

func (r *reservoir) add(ns int64) {
	v := uint32(math.MaxUint32)
	if ns < math.MaxUint32 {
		v = uint32(ns)
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else if j := r.rng.Uint64N(r.n + 1); j < uint64(len(r.buf)) {
		r.buf[j] = v
	}
	r.n++
}

func (r *reservoir) reset() {
	r.buf = r.buf[:0]
	r.n = 0
}

// sample is a merged, sorted set of latency samples.
type sample struct {
	ns []uint32
}

func mergeSamples(rs []*reservoir) sample {
	var s sample
	for _, r := range rs {
		s.ns = append(s.ns, r.buf...)
	}
	slices.Sort(s.ns)
	return s
}

// quantileUs is the nearest-rank q-quantile in microseconds.
func (s sample) quantileUs(q float64) float64 {
	if len(s.ns) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s.ns)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s.ns[i]) / 1e3
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
