// Fixture analyzed under depsense/internal/report, a clocked zone: bare
// wall-clock reads must be injected or justified.
package fixture

import "time"

// Stamp reads the wall clock bare.
func Stamp() time.Time {
	return time.Now() // want `bare time\.Now\(\) in clocked zone`
}

// GeneratedAt is the shape of the report bug seedsource caught: a zero
// stamp fell back to a bare wall-clock read, so two renders of one result
// differed.
func GeneratedAt(stamp time.Time) string {
	ts := stamp
	if ts.IsZero() {
		ts = time.Now() // want `bare time\.Now\(\) in clocked zone depsense/internal/report`
	}
	return ts.Format(time.RFC3339)
}

// Timing carries the sanctioned justification.
func Timing() time.Duration {
	start := time.Now() //lint:allow seedsource wall-clock timing measurement
	return time.Since(start)
}

// Injected is the preferred shape: time.Now referenced as the default of an
// injectable clock, never called bare.
func Injected(clock func() time.Time) time.Time {
	if clock == nil {
		clock = time.Now
	}
	return clock()
}
