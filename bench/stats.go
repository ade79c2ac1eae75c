package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// kernelEvery is how often a measurement stops to time the calibration
// kernel: two kernel runs (≈30 ms) for every 300 ms measured keep the
// kernel within a tenth of the run and its samples next to the passes
// they restate.
const kernelEvery = 300 * time.Millisecond

// kernelClock takes calibration samples between the passes of one
// measurement, so the kernel sees the host exactly when the measurement
// does.
type kernelClock struct {
	last time.Time
	ms   []float64
}

// tick times the kernel when kernelEvery has passed since it last did:
// twice for every kernelEvery that passed, ten times at most (what the
// first tick of a block takes, the other measurements having run since).
// Measurements call it between passes, never inside a timed section.
func (k *kernelClock) tick() {
	since := time.Since(k.last)
	if since < kernelEvery {
		return
	}
	for n := min(2*int(since/kernelEvery), 10); n > 0; n-- {
		k.ms = append(k.ms, calibrationKernel())
	}
	k.last = time.Now()
}

// speed is the kernel time the clock's measurement is restated from: the
// mean of the middle half of the samples. The kernel allocates, so a
// sample is a few milliseconds longer when a collection falls into it;
// the median of such a two-humped sample jumps from hump to hump with
// the share of samples hit, the mean moves with it smoothly, and leaving
// out the outer quarters keeps a descheduled sample from counting.
func (k *kernelClock) speed() float64 {
	s := append([]float64(nil), k.ms...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// measure is one measurement of a run, taken in blocks of passes.
type measure struct {
	share float64          // of the whole budget
	least int              // timed passes to take whatever the budget
	warm  bool             // a block's first pass is a warm-up and is not recorded
	pass  func(timed bool) // one pass; the measurement records it only when timed
	clock *kernelClock
	runs  int           // timed passes so far
	timed time.Duration // what they took, kernel and warm-up left out
	spent time.Duration // the blocks' wall time, kernel and warm-up included
}

// room reports whether another pass of the mean length so far ends
// nearer to target than stopping now does.
func (m *measure) room(spent, target time.Duration) bool {
	if m.runs == 0 {
		return spent < target
	}
	return spent+m.timed/time.Duration(2*m.runs) < target
}

// block runs passes until the measure has spent target in all its blocks
// so far and taken least passes. A block starts from a collected heap
// and, for a measure of short passes, with one discarded pass, so the
// garbage, the heap size and the cold caches the previous measurement
// left behind are not on this one's clock.
func (m *measure) block(target time.Duration, least int) {
	if m.runs >= least && !m.room(m.spent, target) {
		return
	}
	t0 := time.Now()
	runtime.GC()
	if m.warm {
		m.pass(false)
	}
	for m.runs < least || m.room(m.spent+time.Since(t0), target) {
		m.clock.tick()
		p0 := time.Now()
		m.pass(true)
		m.timed += time.Since(p0)
		m.runs++
	}
	m.spent += time.Since(t0)
}

// schedule gives every measure its share of budget in rounds blocks, the
// measures taking turns in the order given: every metric is sampled in
// each part of the run, so a disturbance shorter than the run (the
// neighbours of a shared host) reaches only some of its samples, and
// within a block the measured code runs back to back in its steady
// state.
func schedule(budget time.Duration, rounds int, measures []*measure) {
	for r := 1; r <= rounds; r++ {
		for _, m := range measures {
			target := time.Duration(m.share * float64(budget) * float64(r) / float64(rounds))
			m.block(target, (m.least*r+rounds-1)/rounds)
		}
	}
}

// calibrationRefMS is the calibration kernel's time on the host speed
// the end-to-end timings are reported at: about what a quiet run on the
// two-vCPU box this was written on takes.
const calibrationRefMS = 15.0

// calibrationKernel is a fixed piece of work that belongs to the
// benchmark and never changes with the code under test: format, hash,
// sort and look up 40 000 short strings. It allocates, chases pointers
// and branches the way the measured code does, so when other tenants of
// the host slow that code by a third — which a pure arithmetic loop does
// not feel — the kernel slows with it (measured: 22-second medians of
// query, extraction and discovery timings spread 17–23% raw and 4–6%
// once divided by the kernel's). It returns its wall time in
// milliseconds.
func calibrationKernel() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	seen := map[string]int{}
	keys := make([]string, 0, 40000)
	for i := 0; i < cap(keys); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := strconv.FormatUint(x%1000000007, 10)
		keys = append(keys, k)
		seen[k] += i
	}
	sort.Strings(keys)
	sum := 0
	for _, k := range keys {
		sum += seen[k]
	}
	calibrationSink = sum
	return time.Since(t0).Seconds() * 1000
}

// calibrationSink keeps the kernel's result alive.
var calibrationSink int

// FNV-1a, folded by hand: the digests run inside timed callbacks, where
// hash/fnv's interface and byte-slice conversions would cost more than
// the hashing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvString folds s and a terminator into h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), so a spread computed here equals the one the acceptance
// check computes. One sample is its own quartiles; none gives NaN.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = min(max(j, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle of xs (NaN when empty).
func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// percentile reads the p-quantile (0..1) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(int(p*float64(len(s))), len(s)-1)]
}

// tailPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it, and its value: the tail a sample of this
// size can support. Under twenty samples only the median qualifies.
func tailPercentile(xs []float64) (p, value float64) {
	n := len(xs)
	if n < 20 {
		return 0.5, median(xs)
	}
	p = float64(n-10) / float64(n)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return p, s[n-11]
}
