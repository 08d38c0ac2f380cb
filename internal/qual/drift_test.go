package qual

import "testing"

func newPageHinkley(delta, lambda float64, minObs, windowCap int) *pageHinkley {
	return &growPageHinkleys(nil, 1, delta, lambda, minObs, windowCap)[0]
}

func TestWindowSnapshot(t *testing.T) {
	w := newWindow(4)
	if vals, _ := w.snapshot(); vals != nil {
		t.Fatalf("empty window snapshot = %v, want nil", vals)
	}
	for i := 0; i < 6; i++ {
		w.push(float64(i), 10+i)
	}
	vals, start := w.snapshot()
	want := []float64{2, 3, 4, 5}
	if len(vals) != len(want) {
		t.Fatalf("snapshot = %v, want %v", vals, want)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v", vals, want)
		}
	}
	if start != 12 {
		t.Fatalf("startTick = %d, want 12", start)
	}
}

// TestWindowSnapshotSkippedTick: a push that skips ticks materializes the
// tick ring, so the oldest retained tick stays exact across the gap.
func TestWindowSnapshotSkippedTick(t *testing.T) {
	w := newWindow(4)
	for _, tick := range []int{0, 1, 2, 5, 6} {
		w.push(float64(tick), tick)
	}
	if vals, start := w.snapshot(); start != 1 || vals[0] != 1 || vals[3] != 6 {
		t.Fatalf("snapshot = %v from tick %d, want [1 2 5 6] from tick 1", vals, start)
	}
	w.push(7, 7)
	if vals, start := w.snapshot(); start != 2 || vals[0] != 2 {
		t.Fatalf("snapshot = %v from tick %d, want [2 5 6 7] from tick 2", vals, start)
	}
}

func TestPageHinkleyDetectsDecrease(t *testing.T) {
	d := newPageHinkley(0.005, 0.05, 4, 8)
	// Stable stretch: no alarm, tiny statistic.
	for i := 0; i < 10; i++ {
		if stat, alarm := d.observe(0.9, i); alarm || stat > 0.05 {
			t.Fatalf("stable tick %d: stat=%v alarm=%v", i, stat, alarm)
		}
	}
	// Step down: the statistic accumulates and alarms within a couple of
	// ticks.
	alarmed := -1
	for i := 10; i < 14; i++ {
		if _, alarm := d.observe(0.4, i); alarm {
			alarmed = i
			break
		}
	}
	if alarmed < 0 {
		t.Fatal("no alarm after reliability step 0.9 -> 0.4")
	}
	// Reset after alarm: a fresh warmup, no immediate re-alarm.
	if d.n != 0 {
		t.Fatalf("detector not reset after alarm: n=%d", d.n)
	}
	if _, alarm := d.observe(0.4, alarmed+1); alarm {
		t.Fatal("re-alarmed immediately after reset")
	}
	// The window survives the reset: the offending stretch stays
	// snapshottable.
	vals, _ := d.win.snapshot()
	if len(vals) == 0 {
		t.Fatal("window lost after alarm")
	}
}

func TestPageHinkleyIgnoresIncrease(t *testing.T) {
	d := newPageHinkley(0.005, 0.05, 4, 8)
	for i := 0; i < 10; i++ {
		d.observe(0.5, i)
	}
	for i := 10; i < 30; i++ {
		if _, alarm := d.observe(0.95, i); alarm {
			t.Fatalf("decrease detector alarmed on an increase at tick %d", i)
		}
	}
}

func TestCUSUMDetectsIncrease(t *testing.T) {
	d := newCUSUM(0.01, 0.1, 4, 8)
	for i := 0; i < 10; i++ {
		if stat, alarm := d.observe(0.1, i); alarm || stat > 0.1 {
			t.Fatalf("stable tick %d: stat=%v alarm=%v", i, stat, alarm)
		}
	}
	alarmed := -1
	var alarmStat float64
	for i := 10; i < 14; i++ {
		if stat, alarm := d.observe(0.4, i); alarm {
			alarmed, alarmStat = i, stat
			break
		}
	}
	if alarmed < 0 {
		t.Fatal("no alarm after dependent-fraction step 0.1 -> 0.4")
	}
	// The returned statistic is the pre-reset crossing value, not the
	// zeroed post-reset state.
	if alarmStat <= 0.1 {
		t.Fatalf("alarm stat = %v, want > lambda 0.1", alarmStat)
	}
	if d.n != 0 || d.s != 0 {
		t.Fatalf("detector not reset after alarm: n=%d s=%v", d.n, d.s)
	}
}

func TestCUSUMIgnoresDecrease(t *testing.T) {
	d := newCUSUM(0.01, 0.1, 4, 8)
	for i := 0; i < 10; i++ {
		d.observe(0.5, i)
	}
	for i := 10; i < 30; i++ {
		if _, alarm := d.observe(0.05, i); alarm {
			t.Fatalf("increase detector alarmed on a decrease at tick %d", i)
		}
	}
}

// TestDetectorsWarmup: no alarms before minObs, however extreme the shift.
func TestDetectorsWarmup(t *testing.T) {
	ph := newPageHinkley(0.005, 0.001, 8, 8)
	cs := newCUSUM(0.005, 0.001, 8, 8)
	for i := 0; i < 7; i++ {
		x := 1.0
		if i > 0 {
			x = 0.0 // maximal decrease for PH, then increase for CUSUM
		}
		if _, alarm := ph.observe(x, i); alarm {
			t.Fatalf("page-hinkley alarmed during warmup at tick %d", i)
		}
		if _, alarm := cs.observe(1-x, i); alarm {
			t.Fatalf("cusum alarmed during warmup at tick %d", i)
		}
	}
}
