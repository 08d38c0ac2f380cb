// Package stats provides the evaluation metrics and aggregation helpers
// used by the experiment harness: classification accuracy with its
// false-positive/false-negative decomposition (matching the bound's
// decomposition), and running mean/deviation accumulators for repeated
// simulation runs.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// Classification summarizes a truth-valued decision vector against ground
// truth. Rates are normalized by the total number of assertions, so
// Accuracy = 1 - FalsePosRate - FalseNegRate, mirroring the error bound's
// decomposition (Section V-A: "false positive bound and false negative
// bound represent the portion of error bound caused by regarding false
// assertions as true and true assertions as false").
type Classification struct {
	Accuracy     float64
	FalsePosRate float64
	FalseNegRate float64
	// Raw counts.
	TruePos, TrueNeg, FalsePos, FalseNeg int
}

// ErrLengthMismatch reports decision/truth vectors of different lengths.
var ErrLengthMismatch = errors.New("stats: decisions and truth have different lengths")

// Classify scores decisions against truth.
func Classify(decisions, truth []bool) (Classification, error) {
	if len(decisions) != len(truth) {
		return Classification{}, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(decisions), len(truth))
	}
	if len(truth) == 0 {
		return Classification{}, errors.New("stats: empty vectors")
	}
	var c Classification
	for j := range truth {
		switch {
		case decisions[j] && truth[j]:
			c.TruePos++
		case decisions[j] && !truth[j]:
			c.FalsePos++
		case !decisions[j] && truth[j]:
			c.FalseNeg++
		default:
			c.TrueNeg++
		}
	}
	total := float64(len(truth))
	c.Accuracy = float64(c.TruePos+c.TrueNeg) / total
	c.FalsePosRate = float64(c.FalsePos) / total
	c.FalseNegRate = float64(c.FalseNeg) / total
	return c, nil
}

// Series accumulates repeated scalar observations (one per simulation run)
// with Welford's online algorithm, so long sweeps stay numerically stable.
type Series struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (s *Series) Add(v float64) {
	s.n++
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// N returns the number of observations.
func (s *Series) N() int { return s.n }

// Mean returns the sample mean (0 for an empty series).
func (s *Series) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance.
func (s *Series) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Series) Std() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Series) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval around the mean.
func (s *Series) CI95() float64 { return 1.96 * s.StdErr() }

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}
