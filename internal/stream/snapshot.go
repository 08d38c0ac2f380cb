package stream

import (
	"fmt"
	"slices"
	"sort"

	"depsense/internal/depgraph"
	"depsense/internal/model"
)

// Snapshot is the serializable state of an Estimator: everything needed to
// reconstruct it exactly — accumulated events, follow edges, id spaces,
// warm-start parameters, and fit counters. The latest Result/Dataset are
// deliberately not captured; they are derived state, reproduced by the
// first AddBatch after Restore (callers that need a ranking immediately
// after restart should persist the published ranking separately).
//
// Follow edges are serialized sorted, so two estimators with the same
// follow set produce byte-identical snapshots regardless of the order the
// edges were observed in.
type Snapshot struct {
	Sources    int              `json:"sources"`
	Assertions int              `json:"assertions"`
	Events     []depgraph.Event `json:"events"`
	// Follows lists [follower, followee] edges, sorted.
	Follows  [][2]int      `json:"follows,omitempty"`
	Params   *model.Params `json:"params,omitempty"`
	Fits     int           `json:"fits"`
	WarmFits int           `json:"warmFits"`
	ColdFits int           `json:"coldFits"`
}

// Snapshot captures the estimator's current state for persistence.
func (e *Estimator) Snapshot() *Snapshot {
	snap := &Snapshot{
		Sources:    e.numSrc,
		Assertions: e.numAssert,
		Events:     slices.Clone(e.events),
		Fits:       e.fits,
		WarmFits:   e.warmFits,
		ColdFits:   e.coldFits,
	}
	for i := 0; i < e.numSrc; i++ {
		for _, anc := range e.graph.Ancestors(i) {
			snap.Follows = append(snap.Follows, [2]int{i, anc})
		}
	}
	sort.Slice(snap.Follows, func(a, b int) bool { return followLess(snap.Follows[a], snap.Follows[b]) })
	if e.params != nil {
		snap.Params = e.params.Clone()
	}
	return snap
}

// followLess orders follow edges by follower, then followee.
func followLess(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// Restore rebuilds an estimator from a snapshot under opts (the runtime
// options — EM config, metrics, clock — are not part of the snapshot). The
// restored estimator refits lazily: Result returns ErrNoData until the
// first AddBatch, which warm-starts from the snapshot's parameters over the
// snapshot's accumulated events plus the new batch — exactly as the
// uninterrupted estimator would have.
//
// Restore refuses, before allocating anything, a snapshot that Snapshot
// could not have written: an id space larger than one past the largest id
// its events, follows and parameters reference (the estimator grows its id
// spaces only from those), follows that are not sorted, unique and
// irreflexive, or invalid parameters. A damaged count therefore cannot
// size an allocation, and an accepted snapshot re-serializes to the same
// bytes.
func Restore(snap *Snapshot, opts Options) (*Estimator, error) {
	if snap == nil {
		return nil, fmt.Errorf("stream: nil snapshot")
	}
	if snap.Sources < 0 || snap.Assertions < 0 {
		return nil, fmt.Errorf("stream: snapshot has negative id space (%d sources, %d assertions)",
			snap.Sources, snap.Assertions)
	}
	maxSrc, maxAssert := -1, -1
	for _, ev := range snap.Events {
		if ev.Source < 0 || ev.Source >= snap.Sources || ev.Assertion < 0 || ev.Assertion >= snap.Assertions {
			return nil, fmt.Errorf("stream: snapshot event %+v outside id space (%d sources, %d assertions)",
				ev, snap.Sources, snap.Assertions)
		}
		maxSrc = max(maxSrc, ev.Source)
		maxAssert = max(maxAssert, ev.Assertion)
	}
	for k, f := range snap.Follows {
		if f[0] < 0 || f[0] >= snap.Sources || f[1] < 0 || f[1] >= snap.Sources {
			return nil, fmt.Errorf("stream: snapshot follow %v outside id space (%d sources)", f, snap.Sources)
		}
		if f[0] == f[1] || (k > 0 && !followLess(snap.Follows[k-1], f)) {
			return nil, fmt.Errorf("stream: snapshot follow %v is a self-follow or out of order", f)
		}
		maxSrc = max(maxSrc, f[0], f[1])
	}
	if snap.Params != nil {
		if snap.Params.NumSources() != snap.Sources {
			return nil, fmt.Errorf("stream: snapshot params cover %d sources, id space has %d",
				snap.Params.NumSources(), snap.Sources)
		}
		if err := snap.Params.Validate(); err != nil {
			return nil, fmt.Errorf("stream: snapshot params: %w", err)
		}
		maxSrc = max(maxSrc, snap.Params.NumSources()-1)
	}
	if snap.Sources > maxSrc+1 || snap.Assertions > maxAssert+1 {
		return nil, fmt.Errorf("stream: snapshot id space (%d sources, %d assertions) exceeds the ids it references",
			snap.Sources, snap.Assertions)
	}
	e := New(opts)
	e.numSrc = snap.Sources
	e.numAssert = snap.Assertions
	e.graph = depgraph.NewGraph(snap.Sources)
	for _, f := range snap.Follows {
		if err := e.graph.AddFollow(f[0], f[1]); err != nil {
			return nil, fmt.Errorf("stream: snapshot follow %v: %w", f, err)
		}
	}
	e.events = slices.Clone(snap.Events)
	if snap.Params != nil {
		e.params = snap.Params.Clone()
	}
	e.fits = snap.Fits
	e.warmFits = snap.WarmFits
	e.coldFits = snap.ColdFits
	e.ExportGauges()
	return e, nil
}
