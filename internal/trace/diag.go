package trace

import "math"

// Diagnostic thresholds.
const (
	// llDecreaseTol absorbs floating-point jitter when checking EM
	// log-likelihood monotonicity: a step counts as a decrease only when it
	// loses more than this much absolute log-likelihood.
	llDecreaseTol = 1e-9
	// plateauRelTol declares a plateau when an iteration improves the
	// log-likelihood by less than this fraction of the trajectory's total
	// improvement.
	plateauRelTol = 1e-3
)

// Diagnostics is the convergence analysis attached to a finished trace.
// Every field is deterministic: it is computed from the deterministic event
// fields only.
type Diagnostics struct {
	Runs []RunDiag `json:"runs,omitempty"`
}

// RunDiag is one algorithm run's convergence verdicts.
type RunDiag struct {
	Algorithm  string `json:"algorithm"`
	Iterations int    `json:"iterations"`
	Stopped    string `json:"stopped,omitempty"`

	// Log-likelihood trajectory (EM family), present when HasLL.
	HasLL   bool    `json:"hasLL,omitempty"`
	LLFirst float64 `json:"llFirst,omitempty"`
	LLLast  float64 `json:"llLast,omitempty"`
	// LLDecreases counts iterations that LOST log-likelihood beyond
	// tolerance — EM guarantees monotone ascent, so any decrease flags a
	// numerical or modeling problem. Monotone is its negation. A decrease
	// into a jump event (see Event.Jump) is not an EM step and is not
	// counted.
	LLDecreases int     `json:"llDecreases,omitempty"`
	MaxDecrease float64 `json:"maxDecrease,omitempty"`
	Monotone    bool    `json:"monotone,omitempty"`
	// Jumps counts the run's jump events: the extrapolations and restarts
	// of an accelerated (SQUAREM) fit.
	Jumps int `json:"jumps,omitempty"`
	// PlateauAt is the 1-based iteration from which every later step
	// improved by less than plateauRelTol of the total improvement; 0 when
	// the run never plateaued. A plateau well before the final iteration of
	// an iteration-capped run means the cap wasted work; a cap with no
	// plateau means the run genuinely needed more budget.
	PlateauAt int `json:"plateauAt,omitempty"`
}

// Diagnose computes the convergence diagnostics for a finished trace. It is
// called by Builder.Finish; exposed so offline tools (ssaudit) can
// re-diagnose traces loaded from JSONL.
func Diagnose(t *Trace) *Diagnostics {
	if len(t.Runs) == 0 {
		return nil
	}
	d := &Diagnostics{}
	for _, run := range t.Runs {
		d.Runs = append(d.Runs, diagnoseRun(run))
	}
	return d
}

func diagnoseRun(run *Run) RunDiag {
	rd := RunDiag{
		Algorithm:  run.Algorithm,
		Iterations: run.Iterations(),
		Stopped:    run.Stopped(),
	}
	diagnoseLL(run, &rd)
	return rd
}

// diagnoseLL checks the run's log-likelihood trajectory for monotone ascent
// into every non-jump event, and for plateau onset.
func diagnoseLL(run *Run, rd *RunDiag) {
	var (
		ll   []float64
		jump []bool
	)
	for i := range run.Events {
		e := &run.Events[i]
		if e.Jump {
			rd.Jumps++
		}
		if e.HasLL {
			ll = append(ll, e.LogLikelihood)
			jump = append(jump, e.Jump)
		}
	}
	if len(ll) == 0 {
		return
	}
	rd.HasLL = true
	rd.LLFirst, rd.LLLast = ll[0], ll[len(ll)-1]
	rd.Monotone = true
	for i := 1; i < len(ll); i++ {
		if drop := ll[i-1] - ll[i]; drop > llDecreaseTol && !jump[i] {
			rd.LLDecreases++
			rd.Monotone = false
			if drop > rd.MaxDecrease {
				rd.MaxDecrease = drop
			}
		}
	}
	// Plateau onset: the earliest iteration after which no step improves by
	// more than plateauRelTol of the trajectory's total improvement.
	total := math.Abs(rd.LLLast - rd.LLFirst)
	if total <= 0 || len(ll) < 3 {
		return
	}
	onset := len(ll)
	for i := len(ll) - 1; i >= 1; i-- {
		if math.Abs(ll[i]-ll[i-1]) > plateauRelTol*total {
			break
		}
		onset = i
	}
	if onset < len(ll) {
		rd.PlateauAt = onset
	}
}
