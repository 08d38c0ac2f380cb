package core

import (
	"encoding/binary"
	"math"
	"testing"

	"depsense/internal/model"
)

// requireMemoBits looks x up in m and fails unless both logs equal
// SafeLog's bit for bit.
func requireMemoBits(t *testing.T, m *logMemo, x float64) {
	t.Helper()
	lx, l1x := m.logs(x)
	if math.Float64bits(lx) != math.Float64bits(model.SafeLog(x)) ||
		math.Float64bits(l1x) != math.Float64bits(model.SafeLog(1-x)) {
		t.Fatalf("memo logs(%v) = (%v, %v), SafeLog (%v, %v)",
			x, lx, l1x, model.SafeLog(x), model.SafeLog(1-x))
	}
}

// requireMemoSlotsValid checks the memo's invariant: every slot holds the
// logs of its own key.
func requireMemoSlotsValid(t *testing.T, m *logMemo) {
	t.Helper()
	for i, s := range m.slots {
		x := math.Float64frombits(s.key)
		if math.Float64bits(s.log) != math.Float64bits(model.SafeLog(x)) ||
			math.Float64bits(s.log1m) != math.Float64bits(model.SafeLog(1-x)) {
			t.Fatalf("slot %d holds (%v, %v) for key %v", i, s.log, s.log1m, x)
		}
	}
}

func (m *logMemo) slot(x float64) uint64 {
	return (math.Float64bits(x) * memoMul) >> m.shift
}

func (m *postMemo) slot(w1, w0 float64) uint64 {
	k1, k0 := math.Float64bits(w1), math.Float64bits(w0)
	return ((k1 * memoMul) ^ k0) * memoMul >> m.shift
}

// TestLogMemoMatchesSafeLog: every lookup equals SafeLog bit for bit — on
// a fresh table, at the clamp edges, on subnormals and degenerate inputs,
// on a repeat (a hit), and on two keys that share a slot, alternated so
// each lookup evicts the other.
func TestLogMemoMatchesSafeLog(t *testing.T) {
	m := newLogMemo(memoSize(1))
	if len(m.slots) != memoMinSlots {
		t.Fatalf("memoSize(1) = %d slots, want %d", len(m.slots), memoMinSlots)
	}
	requireMemoSlotsValid(t, &m)
	xs := []float64{
		0.5, model.ProbEpsilon, 1 - model.ProbEpsilon, 0.25, 0.9,
		math.SmallestNonzeroFloat64, 1e-310, math.Float64frombits(1<<52 - 1),
		0, math.Copysign(0, -1), 1, -0.5, 1.5, math.Inf(1), math.NaN(),
	}
	for _, x := range xs {
		requireMemoBits(t, &m, x) // a miss, or the fill value
		requireMemoBits(t, &m, x) // a hit
	}

	x := model.ProbEpsilon
	y := 0.0
	for k := 1; ; k++ {
		if y = float64(k) / 997; m.slot(y) == m.slot(x) && y != x {
			break
		}
	}
	for r := 0; r < 4; r++ {
		requireMemoBits(t, &m, x)
		requireMemoBits(t, &m, y)
	}
	requireMemoSlotsValid(t, &m)

	for n, want := range map[int]int{0: 64, 32: 64, 33: 128, 270: 1024, 2048: 4096, 5403: 4096} {
		if got := memoSize(n); got != want {
			t.Errorf("memoSize(%d) = %d, want %d", n, got, want)
		}
	}
}

// requirePostMemoBits looks (w1, w0) up in m and fails unless the result
// equals posteriorLSE's bit for bit.
func requirePostMemoBits(t *testing.T, m *postMemo, w1, w0 float64) {
	t.Helper()
	post, lse := m.posteriorLSE(w1, w0)
	wantPost, wantLSE := posteriorLSE(w1, w0)
	if math.Float64bits(post) != math.Float64bits(wantPost) ||
		math.Float64bits(lse) != math.Float64bits(wantLSE) {
		t.Fatalf("memo posteriorLSE(%v, %v) = (%v, %v), want (%v, %v)", w1, w0, post, lse, wantPost, wantLSE)
	}
}

// TestPostMemoMatchesPosteriorLSE: the posterior memo returns
// posteriorLSE's bits at every float64 edge input, on a hit, on two pairs
// that share a slot, alternated, and through a nil memo.
func TestPostMemoMatchesPosteriorLSE(t *testing.T) {
	m := newPostMemo(memoMinSlots)
	for _, c := range posteriorLSEEdges {
		requirePostMemoBits(t, &m, c[0], c[1])
		requirePostMemoBits(t, &m, c[0], c[1])
		requirePostMemoBits(t, nil, c[0], c[1])
	}
	a := [2]float64{-3.5, -4}
	var b [2]float64
	for k := 1; ; k++ {
		if b = [2]float64{-3.5, -4 - float64(k)/997}; m.slot(b[0], b[1]) == m.slot(a[0], a[1]) {
			break
		}
	}
	for r := 0; r < 4; r++ {
		requirePostMemoBits(t, &m, a[0], a[1])
		requirePostMemoBits(t, &m, b[0], b[1])
	}
	for i, s := range m.slots {
		w1, w0 := math.Float64frombits(s.w1), math.Float64frombits(s.w0)
		if post, lse := posteriorLSE(w1, w0); math.Float64bits(post) != math.Float64bits(s.post) ||
			math.Float64bits(lse) != math.Float64bits(s.lse) {
			t.Fatalf("slot %d holds (%v, %v) for (%v, %v)", i, s.post, s.lse, w1, w0)
		}
	}
}

// FuzzLogMemo feeds arbitrary float sequences (8 bytes each, little
// endian) through 64-slot memos, where collisions are frequent: every
// value through the log memo, requiring SafeLog's bits, and every
// consecutive pair through the posterior memo, requiring posteriorLSE's.
func FuzzLogMemo(f *testing.F) {
	seed := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(0.5, model.ProbEpsilon, 1-model.ProbEpsilon, 0.5))
	f.Add(seed(math.SmallestNonzeroFloat64, 0, math.Copysign(0, -1), math.NaN(), math.Inf(-1)))
	f.Add(seed(0.1, 0.2, 0.1, 0.3, 0.2, 0.1))
	f.Add(seed(-3.5, -4, -3.5, -4, math.Inf(1), math.Inf(1), -1e308, 1e308))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, pm := newLogMemo(memoMinSlots), newPostMemo(memoMinSlots)
		prev := 0.0
		for len(data) >= 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			requireMemoBits(t, &m, x)
			requirePostMemoBits(t, &pm, prev, x)
			prev = x
			data = data[8:]
		}
		requireMemoSlotsValid(t, &m)
	})
}
