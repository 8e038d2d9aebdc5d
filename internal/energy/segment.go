// Segment solver: the closed form of the capacitor's discrete-step
// recurrence under constant net power, used by the event-driven
// simulator (internal/sim) to jump whole quiet windows instead of
// grinding fixed steps.
//
// Within one step of the step simulator (storage.Capacitor.StepInto with
// constant harvest credit H and load debit D per step) the stored
// energy evolves as
//
//	u_i     = e_i + H                    (harvest credit)
//	leak_i  = λ·u_i,  λ = 2·k_cap·dt     (I_R·U = k_cap·C·U² = 2·k_cap·E)
//	e_{i+1} = (1−λ)·u_i − D
//
// i.e. an affine map e_{i+1} = A·e_i + (A·H − D) with A = 1−λ, whose
// n-step composition has the closed form
//
//	e_n = e* + Aⁿ·(e_0 − e*),   e* = (A·H − D)/λ.
//
// The map is a contraction toward e*, so trajectories are monotone and
// threshold crossings can be found by inverting Aⁿ. Where the inversion
// loses precision — the guard band near a threshold that sits close to
// the asymptote e* — the solver falls back to a rigorous linear bound,
// so its answer always undershoots the true crossing: callers step the
// bit-honest oracle over the remaining handful of steps.
package energy

import "math"

// segNever is the "never crosses" step count; far beyond any horizon.
const segNever = 1 << 60

// Segment is the per-step affine recurrence of one quiet window:
// constant harvest credit and load debit, leak proportional to stored
// energy. Build one per window with NewSegment.
type Segment struct {
	// Lambda is the leak fraction of post-harvest energy per step,
	// 2·k_cap·dt.
	Lambda float64
	// A is the per-step retention factor 1 − Lambda.
	A float64
	// H is the capacitor-side harvest credit per step (joules).
	H float64
	// D is the capacitor-side load debit per step (joules).
	D float64
	// F is the fixed point e* = (A·H − D)/λ, precomputed because the
	// crossing solver runs before every literal step of the event
	// simulator.
	F float64
}

// NewSegment builds the recurrence for one quiet window. kcap is the
// capacitor's leakage coefficient (1/s), dt the step, h and d the
// per-step harvest credit and load debit in joules. ok is false when
// the contraction is too coarse for the closed form to be trustworthy
// (λ out of (0, ¼)); callers must then step literally.
func NewSegment(kcap, dt, h, d float64) (s Segment, ok bool) {
	lambda := 2 * kcap * dt
	if !(lambda > 0) || lambda >= 0.25 {
		return Segment{}, false
	}
	a := 1 - lambda
	return Segment{
		Lambda: lambda,
		A:      a,
		H:      h,
		D:      d,
		F:      (a*h - d) / lambda,
	}, true
}

// EnergyAfter returns the stored energy after n steps from e0:
// e* + Aⁿ·(e0 − e*). Aⁿ is computed by binary exponentiation — a few
// multiplies instead of an exp, and with O(log n) ulp error it is as
// accurate as the exp form at a fraction of the cost.
func (s *Segment) EnergyAfter(e0 float64, n int) float64 {
	return s.F + (e0-s.F)*powInt(s.A, n)
}

// powInt returns aⁿ for n ≥ 0 by binary exponentiation.
func powInt(a float64, n int) float64 {
	p := 1.0
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			p *= a
		}
		a *= a
	}
	return p
}

// StepsShortOfCrossing returns a step count n ≥ 0 such that the
// trajectory from e0 is still strictly on the starting side of target
// after n steps — a conservative undershoot of the true first-crossing
// index, safe to jump in one go. It returns a count far beyond any
// simulation horizon when the trajectory provably never reaches target
// (the asymptote lies short of it, or motion points away).
func (s *Segment) StepsShortOfCrossing(e0, target float64) int {
	den := s.F - e0     // total distance to the asymptote
	dist := target - e0 // distance to the threshold
	if dist == 0 {
		return 0
	}
	if den == 0 || (den > 0) != (dist > 0) {
		// Stationary, or moving away from the target.
		return segNever
	}
	aden := math.Abs(den)
	adist := math.Abs(dist)
	if adist >= aden {
		// The asymptote sits short of the target: approached, never
		// reached.
		return segNever
	}

	// Rigorous bound: per-step movement is λ·|e* − e_k|, which only
	// shrinks, so covering adist takes at least adist/(λ·aden) steps.
	lin := adist / (s.Lambda * aden)
	if lin > 1e15 {
		return segNever
	}
	n := int(lin) - 1

	// The linear bound is tight while the contraction barely bends the
	// trajectory (λ·lin ≪ 1); invert the exponential only when it can
	// meaningfully extend the jump, sparing a log on the hot path.
	if s.Lambda*lin <= 0.05 {
		if n < 0 {
			return 0
		}
		return n
	}

	// Exponential inversion: first crossing at ln(gap/aden)/ln A with
	// gap = |e* − target|. Its guard widens with the cancellation error
	// of gap, so the estimate stays an undershoot even deep inside the
	// near-asymptote guard band.
	gap := aden - adist
	if gap > 0 {
		// ln A, computed as log1p(−λ) for accuracy. Only this branch
		// needs it, so it is not worth a field set eagerly by every
		// NewSegment on the event simulator's per-tile path.
		lnA := math.Log1p(-s.Lambda)
		guard := 2 + 4e-16*(aden/gap)/s.Lambda
		if est := math.Log(gap/aden)/lnA - guard; est > float64(n) {
			if est > 1e15 {
				return segNever
			}
			n = int(est)
		}
	}
	if n < 0 {
		return 0
	}
	return n
}
