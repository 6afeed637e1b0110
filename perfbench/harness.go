package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"syscall"
	"time"
)

// item is one op of a workload's generated stream. Every workload is a
// fixed skeleton of op templates; the seed picks which variant of each
// template a round issues, the order of the round, and which earlier input
// each resubmission repeats. The skeleton keeps the cost mix of a round
// the same for every seed, so figures from different seeds compare.
type item struct {
	Tmpl, Variant int
	// Repeat marks a resubmission of an input issued earlier in the run.
	Repeat bool
}

// stream generates the rounds of one run from its seed.
type stream struct {
	seed      int64
	templates int
	variants  int
	// repeats is the number of resubmissions of each template per round.
	repeats int
	// perm[t] is the order in which template t's variants are issued as
	// new inputs, one per round; rounds never exceed variants, so a new
	// input never repeats an earlier one.
	perm [][]int
}

func newStream(seed int64, templates, variants, repeats int) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{seed: seed, templates: templates, variants: variants, repeats: repeats}
	for t := 0; t < templates; t++ {
		s.perm = append(s.perm, rng.Perm(variants))
	}
	return s
}

// round returns round r: every template once as a new input and repeats
// times as a resubmission of an input issued in this or one of the three
// previous rounds. In round 0 every resubmission follows all new inputs;
// later rounds follow each new input with resubmissions.
func (s *stream) round(r int) []item {
	rng := rand.New(rand.NewSource(s.seed*7919 + int64(r) + 1))
	order := rng.Perm(s.templates)
	reorders := make([][]int, s.repeats)
	for k := range reorders {
		reorders[k] = rng.Perm(s.templates)
	}
	pos := make([]int, s.templates) // position of each template's new input in order
	for i, t := range order {
		pos[t] = i
	}
	out := make([]item, 0, (1+s.repeats)*s.templates)
	repeat := func(i, t int) item {
		lo := r - 3
		if lo < 0 {
			lo = 0
		}
		target := lo + rng.Intn(r-lo+1)
		if target == r && r > 0 && pos[t] > i {
			target = r - 1 // this round's new input for t is not issued yet
		}
		return item{Tmpl: t, Variant: s.perm[t][target], Repeat: true}
	}
	if r == 0 {
		for _, t := range order {
			out = append(out, item{Tmpl: t, Variant: s.perm[t][0]})
		}
		for _, reorder := range reorders {
			for _, t := range reorder {
				out = append(out, item{Tmpl: t, Variant: s.perm[t][0], Repeat: true})
			}
		}
		return out
	}
	for i := range order {
		out = append(out, item{Tmpl: order[i], Variant: s.perm[order[i]][r]})
		for _, reorder := range reorders {
			out = append(out, repeat(i, reorder[i]))
		}
	}
	return out
}

// opRecord is one attempted op.
type opRecord struct {
	it  item
	ms  float64 // host CPU milliseconds
	out string  // canonical simulated output
	err error   // refused, timed out, failed, or failed a check
}

func (o *opRecord) failed() bool { return o.err != nil }

// latency is the op's host time, +Inf when it failed: a failed op misses
// every latency limit.
func (o *opRecord) latency() float64 {
	if o.failed() {
		return math.Inf(1)
	}
	return o.ms
}

// opTimeout bounds one op; a slower op counts as timed out (failed).
// Tests shorten it.
var opTimeout = 60 * time.Second

// summary is the latency distribution of a set of ops.
type summary struct {
	n      int
	p50    float64
	tail   float64
	pct    float64 // percentile of tail within a block
	beyond int     // samples above tail within a block
	blocks int     // number of blocks tail is the median over
}

// tailBlock is the fewest samples one tail is taken over. A set of at
// least twice as many is split, in issue order, into the most blocks of
// at least tailBlock samples each, and its tail is the median of the
// blocks' tails. The tail of one set of thousands of samples is its
// eleventh-largest, which on a shared host is set by the few ops an
// interrupt or a preemption lands on: daemon-mix's 2250 hits gave a tail
// that spread 0.27 of its median over five seeds, its p50 0.02. A block's
// tail sits among ops the program made slow, and the median over blocks
// is read from the whole run.
const tailBlock = 200

// summarize computes the median of xs and its tail. xs is in issue
// order. A block's tail is the sample at the highest percentile that
// still has at least ten samples beyond it; with ten samples or fewer no
// percentile qualifies, and the maximum is reported with zero beyond.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{p50: math.NaN(), tail: math.NaN()}
	}
	sm := blockSummary(xs)
	b := n / tailBlock
	if b < 2 {
		return sm
	}
	tails := make([]float64, b)
	for i := range tails {
		blk := blockSummary(xs[i*n/b : (i+1)*n/b])
		tails[i], sm.pct, sm.beyond = blk.tail, blk.pct, blk.beyond
	}
	sm.tail, sm.blocks = median(tails), b
	return sm
}

// blockSummary is summarize on one block.
func blockSummary(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	k := n - 11
	if k < 0 {
		k = n - 1
	}
	return summary{n: n, p50: median(s), tail: s[k], pct: 100 * float64(k+1) / float64(n), beyond: n - 1 - k, blocks: 1}
}

// median of xs, which it sorts.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[n/2]
}

// cpuNow is the host CPU time this process has consumed, all threads
// included (garbage collection, pdes workers, the daemon's goroutines).
// Ops are timed in it rather than in wall time: on a shared host whose
// vCPUs are descheduled for seconds at a time, wall-time medians of one
// op drift by more than half while its CPU time stays within a few
// percent. With one client, the process runs nothing but the op, so the
// delta is the op's whole cost.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSince returns the host CPU milliseconds consumed since t0 = cpuNow().
func cpuSince(t0 time.Duration) float64 { return float64(cpuNow()-t0) / 1e6 }

// phase is the outcome of one measured stretch of rounds.
type phase struct {
	ops    []*opRecord
	cpu    time.Duration // host CPU time of the stretch
	rounds int
}

// runPhase issues the next rounds rounds of st, one op at a time (a
// closed loop with one client). The number of rounds is fixed by the
// caller, never by how fast the ops run: a faster program then measures
// the same inputs and the same number of samples, so each percentile
// falls on the same rank. Only whole rounds run, so every measured
// stretch has the skeleton's cost mix. The stretch fails once the wall
// clock passes deadline.
func runPhase(st *stream, next *int, rounds int, deadline time.Time, do func(item) *opRecord) (phase, error) {
	var ph phase
	cpu0 := cpuNow()
	for ; ph.rounds < rounds; ph.rounds++ {
		if time.Now().After(deadline) {
			return ph, fmt.Errorf("measurement passed its wall-time cap after %d of %d rounds", ph.rounds, rounds)
		}
		for _, it := range st.round(*next) {
			ph.ops = append(ph.ops, do(it))
		}
		*next++
	}
	ph.cpu = cpuNow() - cpu0
	return ph, nil
}

// timeOp times f as one op of it. An op that takes longer than opTimeout
// of wall time has timed out.
func timeOp(it item, f func() (string, error)) *opRecord {
	wall, cpu := time.Now(), cpuNow()
	out, err := f()
	ms := cpuSince(cpu)
	if d := time.Since(wall); err == nil && d > opTimeout {
		err = fmt.Errorf("timed out after %v", d)
	}
	return &opRecord{it: it, ms: ms, out: out, err: err}
}

// digest is the short content hash of a canonical output.
func digest(out string) string {
	h := sha256.Sum256([]byte(out))
	return hex.EncodeToString(h[:8])
}

// checkOutputs applies the checks every workload shares: each output must
// equal the recorded expectation for its input, and a resubmitted input
// must reproduce the output of its first issue byte for byte. A mismatch
// fails the op.
func checkOutputs(ops []*opRecord, exp *expected, names []string) {
	first := map[[2]int]string{}
	for _, o := range ops {
		if o.failed() {
			continue
		}
		key := [2]int{o.it.Tmpl, o.it.Variant}
		if prev, ok := first[key]; ok && prev != o.out {
			o.err = fmt.Errorf("resubmitted %s variant %d gave a different output", names[o.it.Tmpl], o.it.Variant)
			continue
		}
		first[key] = o.out
		if want := exp.digest(names[o.it.Tmpl], o.it.Variant); want != digest(o.out) {
			o.err = fmt.Errorf("%s variant %d: output digest %s, expected %s (output %s)",
				names[o.it.Tmpl], o.it.Variant, digest(o.out), want, o.out)
		}
	}
}
