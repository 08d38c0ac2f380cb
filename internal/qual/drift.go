package qual

import "slices"

// Deterministic sequential change detectors over per-tick quality series.
// Both detectors are pure functions of the observation sequence — no
// randomness, no clocks — so two monitors fed the same refit sequence alarm
// at exactly the same tick, which is what lets the e2e tests assert an
// alarm's tick number and what keeps verdicts byte-identical at any
// Workers value.

// window is a fixed-capacity ring of the most recent observations with
// their tick numbers, kept so an alarm can snapshot the offending stretch
// of the series. The monitor's detectors observe every refit, so their
// ticks are consecutive and implied by the newest one; a tick ring is
// materialized only at the first push that skips a tick.
type window struct {
	vals  []float64
	ticks []int // nil while the retained ticks are consecutive
	last  int   // tick of the newest observation
	head  int
	n     int
}

func newWindow(cap int) window {
	return window{vals: make([]float64, cap)}
}

func (w *window) push(v float64, tick int) {
	if w.ticks == nil && w.n > 0 && tick != w.last+1 {
		w.ticks = make([]int, len(w.vals))
		for k := 1; k <= w.n; k++ {
			w.ticks[(w.head-k+len(w.vals))%len(w.vals)] = w.last + 1 - k
		}
	}
	w.vals[w.head] = v
	if w.ticks != nil {
		w.ticks[w.head] = tick
	}
	w.last = tick
	w.head = (w.head + 1) % len(w.vals)
	if w.n < len(w.vals) {
		w.n++
	}
}

// snapshot returns the retained values in chronological order and the tick
// of the oldest one.
func (w *window) snapshot() (vals []float64, startTick int) {
	if w.n == 0 {
		return nil, 0
	}
	start := (w.head - w.n + len(w.vals)) % len(w.vals)
	vals = make([]float64, w.n)
	for i := 0; i < w.n; i++ {
		vals[i] = w.vals[(start+i)%len(w.vals)]
	}
	if w.ticks == nil {
		return vals, w.last - w.n + 1
	}
	return vals, w.ticks[start]
}

// pageHinkley is the Page-Hinkley test for a DECREASE in the mean of a
// series: it accumulates m_t = Σ (x̄_i − x_i − δ) and alarms when m_t rises
// more than λ above its running minimum — i.e. when recent observations
// run persistently below the series' historical mean by more than the
// drift allowance δ. Used for per-source reliability trajectories, where
// the failure mode of interest is a source going bad.
type pageHinkley struct {
	delta  float64 // per-step drift allowance
	lambda float64 // alarm threshold on the PH statistic
	minObs int     // warmup: no alarms before this many observations

	n      int
	mean   float64
	cum    float64
	minCum float64
	win    window
}

// growPageHinkleys extends dets to n detectors, the new ones' windows
// carved from one allocation: the monitor adds per-source detectors
// hundreds at a time as a stream's source set grows, and allocating each
// detector and window separately was most of a refit's monitoring cost.
func growPageHinkleys(dets []pageHinkley, n int, delta, lambda float64, minObs, windowCap int) []pageHinkley {
	k := n - len(dets)
	if k <= 0 {
		return dets
	}
	dets = slices.Grow(dets, k)
	vals := make([]float64, k*windowCap)
	for i := 0; i < k; i++ {
		lo, hi := i*windowCap, (i+1)*windowCap
		dets = append(dets, pageHinkley{
			delta: delta, lambda: lambda, minObs: minObs,
			win: window{vals: vals[lo:hi:hi]},
		})
	}
	return dets
}

// observe feeds one observation and returns the current PH statistic and
// whether it crossed the alarm threshold at this tick. After an alarm the
// detector resets to a fresh warmup, so a persisting shift re-alarms only
// after re-accumulating evidence instead of firing every tick.
func (d *pageHinkley) observe(x float64, tick int) (stat float64, alarm bool) {
	d.n++
	d.mean += (x - d.mean) / float64(d.n)
	d.cum += d.mean - x - d.delta
	if d.cum < d.minCum {
		d.minCum = d.cum
	}
	d.win.push(x, tick)
	stat = d.cum - d.minCum
	if d.n >= d.minObs && stat > d.lambda {
		d.reset()
		return stat, true
	}
	return stat, false
}

func (d *pageHinkley) reset() {
	d.n, d.mean, d.cum, d.minCum = 0, 0, 0, 0
}

// cusum is a one-sided CUSUM for an INCREASE in the mean of a series
// relative to its running baseline: S_t = max(0, S_{t-1} + x_t − x̄ − δ),
// alarming when S_t exceeds λ. Used for dependency-graph churn series
// (dependent-claim fraction, follow-edge add rate), where the failure mode
// of interest is the graph regime heating up beyond what the model was fit
// on.
type cusum struct {
	delta  float64
	lambda float64
	minObs int

	n    int
	mean float64
	s    float64
	win  window
}

func newCUSUM(delta, lambda float64, minObs, windowCap int) *cusum {
	return &cusum{delta: delta, lambda: lambda, minObs: minObs, win: newWindow(windowCap)}
}

// observe feeds one observation; semantics mirror pageHinkley.observe. The
// baseline mean updates after the excess is scored, so a step change is
// measured against the pre-change mean until it is absorbed.
func (d *cusum) observe(x float64, tick int) (stat float64, alarm bool) {
	excess := 0.0
	if d.n > 0 {
		excess = x - d.mean - d.delta
	}
	d.n++
	d.mean += (x - d.mean) / float64(d.n)
	d.s += excess
	if d.s < 0 {
		d.s = 0
	}
	d.win.push(x, tick)
	stat = d.s
	if d.n >= d.minObs && stat > d.lambda {
		d.reset()
		return stat, true
	}
	return stat, false
}

func (d *cusum) reset() {
	d.n, d.mean, d.s = 0, 0, 0
}
