package core

import (
	"math"
	"math/bits"

	"depsense/internal/model"
	"depsense/internal/parallel"
)

// Scratch holds every buffer the EM kernels touch per iteration: the
// per-source log tables and correction tables, the posterior vector, the
// M-step numerators/denominators, and the per-block reduction partials. A run
// without an explicit Scratch allocates one internally (the historical
// behaviour); callers on a refit loop — the stream estimator's warm
// refits, the plug-in re-score, benchmark harnesses — pass one through
// Options.Scratch so consecutive fits reuse the same memory and the
// serial kernel iteration allocates nothing at all.
//
// A Scratch is exclusive to one running fit: it must not be shared by
// concurrent runs. Intra-run E/M-step parallelism is fine, since all
// workers of one run share one engine by design. Buffers grow
// monotonically and every entry a fit reads is written by that fit first
// (the log memo's entries are correct whoever wrote them), so reuse across
// datasets of different shapes is safe.
type Scratch struct {
	// Per-source log tables, refreshed each iteration. Only the silent
	// factors log(1-a_i), log(1-b_i) are kept whole: everything else the
	// E-step needs is folded into the correction tables below.
	log1A, log1B []float64

	// Per-source sparse-correction tables: what one nonzero of SC (or of
	// the silent-dependent pattern) adds to the all-silent baseline, per
	// hypothesis. corrA1 = log a_i - log(1-a_i) (independent claim, C=1),
	// corrB0 the same under C=0; corrF1/corrG0 for dependent claims;
	// corrSF1/corrSG0 for silent-dependent pairs.
	//
	// refreshLogs writes an entry only where this variant's E-step reads
	// it: corrA1/corrB0 for a source with an independent claim (any claim
	// under VariantIndependent), and — under VariantExt only —
	// corrF1/corrG0 for a source with a dependent claim and
	// corrSF1/corrSG0 for one with a silent-dependent pair. Every other
	// entry is stale, left by an earlier iteration, variant or dataset,
	// and the E-step never reads it.
	corrA1, corrB0   []float64
	corrF1, corrG0   []float64
	corrSF1, corrSG0 []float64

	post []float64 // Z_j = P(C_j = 1 | SC_j; θ)

	// Per-block reduction partials (E-step log-likelihood, M-step posterior
	// mass) and per-source M-step numerators/denominators.
	llPart, zPart []float64
	nums, dens    [][4]float64

	// theta backs a cold fit's three SQUAREM parameter vectors; see
	// fit.squarem. It is sized on first use, so warm fits never grow it.
	theta []float64

	// memo caches the parameter logs refreshLogs reads; see logMemo.
	memo logMemo
	// postMemo caches the serial E-step's posteriors; see postMemo.
	postMemo postMemo
}

// NewScratch returns an empty Scratch; buffers are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// grow (re)sizes every buffer for an n-source, m-assertion dataset. Slices
// keep their backing arrays whenever capacity suffices, so repeated fits at
// a stable problem size never reallocate.
func (s *Scratch) grow(n, m int) {
	growTo(&s.log1A, n)
	growTo(&s.log1B, n)
	growTo(&s.corrA1, n)
	growTo(&s.corrB0, n)
	growTo(&s.corrF1, n)
	growTo(&s.corrG0, n)
	growTo(&s.corrSF1, n)
	growTo(&s.corrSG0, n)
	growTo(&s.post, m)
	growTo(&s.llPart, parallel.Blocks(m, emBlockSize))
	growTo(&s.zPart, parallel.Blocks(m, emBlockSize))
	if size := memoSize(n); len(s.memo.slots) < size {
		s.memo = newLogMemo(size)
	}
	if size := memoSize(m); len(s.postMemo.slots) < size {
		s.postMemo = newPostMemo(size)
	}
	if cap(s.nums) < n {
		s.nums = make([][4]float64, n)
		s.dens = make([][4]float64, n)
	} else {
		s.nums = s.nums[:n]
		s.dens = s.dens[:n]
	}
}

func growTo(sl *[]float64, size int) {
	if cap(*sl) < size {
		*sl = make([]float64, size)
	} else {
		*sl = (*sl)[:size]
	}
}

// logMemo is a direct-mapped cache of (SafeLog(x), SafeLog(1−x)) keyed by
// the bit pattern of x. Structurally alike sources converge to parameters
// that are equal to the bit, so most of refreshLogs' logs repeat within an
// iteration and across iterations; a hit replaces two math.Log calls with
// one multiply and one load.
//
// Every slot always holds a correct pair: the table is filled with x = 0.5
// at allocation and a miss overwrites the whole slot. A lookup therefore
// returns exactly what SafeLog returns, whatever the table saw before, and
// nothing is ever reset between iterations, refits or datasets.
type logMemo struct {
	slots []logSlot
	shift uint // 64 − log2(len(slots))
}

type logSlot struct {
	key        uint64 // math.Float64bits(x)
	log, log1m float64
}

// Memo table bounds: a power of two between 64 and 4,096 slots.
const (
	memoMinSlots = 64
	memoMaxSlots = 4096
)

// memoMul is 2^64 divided by the golden ratio: the multiplier of
// Fibonacci hashing, whose product's top bits pick a memo slot.
const memoMul = 0x9E3779B97F4A7C15

// memoSize returns the table size for n keys per pass (sources, or
// assertions): the smallest power of two of at least 2n slots, clamped to
// [memoMinSlots, memoMaxSlots].
func memoSize(n int) int {
	size := memoMinSlots
	for size < 2*n && size < memoMaxSlots {
		size *= 2
	}
	return size
}

func newLogMemo(size int) logMemo {
	half := logSlot{key: math.Float64bits(0.5), log: model.SafeLog(0.5), log1m: model.SafeLog(1 - 0.5)}
	slots := make([]logSlot, size)
	for i := range slots {
		slots[i] = half
	}
	return logMemo{slots: slots, shift: memoShift(size)}
}

// memoShift returns 64 − log2(size) for a power-of-two table size: the
// shift that maps a 64-bit product onto a slot.
func memoShift(size int) uint { return uint(64 - bits.TrailingZeros(uint(size))) }

// logs returns (SafeLog(x), SafeLog(1−x)), from the table on a hit. A
// collision recomputes and overwrites the slot.
func (m *logMemo) logs(x float64) (lx, l1x float64) {
	k := math.Float64bits(x)
	s := &m.slots[(k*memoMul)>>m.shift]
	if s.key != k {
		*s = logSlot{key: k, log: model.SafeLog(x), log1m: model.SafeLog(1 - x)}
	}
	return s.log, s.log1m
}

// postMemo is a direct-mapped cache of posteriorLSE(w1, w0) keyed by the
// bit patterns of both log-weights. Assertions with alike claimants get
// log-weights equal to the bit (~78 distinct of ~185 per /v1/factfind
// body), so most E-step exponentials and log1p calls repeat. It keeps
// logMemo's invariant: the table is filled with posteriorLSE(0, 0) at
// allocation and a miss overwrites the whole slot, so every slot holds a
// correct pair and a lookup returns posteriorLSE's bits. Its slots are
// written on every miss, so only a serial E-step may use it; a nil
// *postMemo computes every posterior.
type postMemo struct {
	slots []postSlot
	shift uint
}

type postSlot struct {
	w1, w0    uint64 // math.Float64bits of the log-weights
	post, lse float64
}

func newPostMemo(size int) postMemo {
	post, lse := posteriorLSE(0, 0)
	slots := make([]postSlot, size)
	for i := range slots {
		slots[i] = postSlot{post: post, lse: lse}
	}
	return postMemo{slots: slots, shift: memoShift(size)}
}

// posteriorLSE returns posteriorLSE(w1, w0), from the table on a hit.
func (m *postMemo) posteriorLSE(w1, w0 float64) (post, lse float64) {
	if m == nil {
		return posteriorLSE(w1, w0)
	}
	k1, k0 := math.Float64bits(w1), math.Float64bits(w0)
	s := &m.slots[((k1*memoMul)^k0)*memoMul>>m.shift]
	if s.w1 != k1 || s.w0 != k0 {
		post, lse = posteriorLSE(w1, w0)
		*s = postSlot{w1: k1, w0: k0, post: post, lse: lse}
	}
	return s.post, s.lse
}
