package experiment

import (
	"lifting/internal/analysis"
	"lifting/internal/rng"
)

// BlameProcess samples the per-period blame applied to one node under the
// workload model of the paper's analysis (§6.2): every period the node
// proposes to (1−δ1)·f partners, each answering with an |R|-chunk request,
// and is itself served by f verifiers that run direct cross-checking with
// probability pdcc. Message losses are i.i.d. Bernoulli(pl).
//
// The sampler's event structure mirrors Equations (2), (3) and b̃′(∆)
// term-for-term, so its empirical mean converges to the closed forms — the
// Monte-Carlo validation the paper reports in §6. Figures 10-12 are
// regenerated from it.
type BlameProcess struct {
	P     analysis.Params
	Delta analysis.Delta
	Rand  *rng.Stream
}

// SamplePeriod draws one period's total blame when verifiers poll
// witnesses with probability pdcc (1 is the setting the paper analyzes).
// Direct verification and the missing/incomplete-ack blame are
// pdcc-independent; witness contradictions (including the detection of
// dropped proposals, δ2) require a poll.
func (bp *BlameProcess) SamplePeriod(pdcc float64) float64 {
	pr := 1 - bp.P.Loss
	f := bp.P.F
	r := bp.P.R
	var blame float64

	// Direct verification: the node proposed to (1−δ1)·f partners. For each
	// partner, the proposal and the request each travel once; requested
	// chunks are dropped by the node with probability δ3 and lost with
	// probability pl.
	partners := int((1-bp.Delta.D1)*float64(f) + 0.5)
	for j := 0; j < partners; j++ {
		if !bp.Rand.Bernoulli(pr) {
			continue // proposal lost: the partner never requests
		}
		if !bp.Rand.Bernoulli(pr) {
			blame += float64(f) // request lost: blamed f ((a) of Eq. 2)
			continue
		}
		for k := 0; k < r; k++ {
			if !bp.Rand.Bernoulli(pr * (1 - bp.Delta.D3)) {
				blame += float64(f) / float64(r)
			}
		}
	}

	// Direct cross-checking: the node received chunks from its servers,
	// whose count per period is Poisson(f) — each of the n·f proposals in
	// the system targets this node with probability 1/n. (This workload
	// randomness is what lifts the paper's experimental σ(b) to 25.6 from
	// the 19.3 a fixed verifier count would give.) With probability δ2 the
	// node dropped a verifier's chunks entirely (blamed f — the δ2·f² term
	// of b̃′); otherwise the serve/ack chain must survive (pr² for
	// proposal+request, pr^(|R|+1) for serves+ack), and each of the f
	// witnesses answers through a 3-leg exchange whose legs the node's
	// reduced fanout (δ1) breaks.
	verifiers := bp.Rand.Poisson(float64(f))
	for i := 0; i < verifiers; i++ {
		if bp.Rand.Bernoulli(bp.Delta.D2) {
			// Dropped this verifier's chunks; the lie in the ack is only
			// exposed when the verifier polls its witnesses.
			if bp.Rand.Bernoulli(pdcc) {
				blame += float64(f)
			}
			continue
		}
		if !bp.Rand.Bernoulli(pr * pr) {
			continue // the verifier never served: nothing to check
		}
		chainOK := true
		for k := 0; k < r+1; k++ {
			if !bp.Rand.Bernoulli(pr) {
				chainOK = false
				break
			}
		}
		if !chainOK {
			blame += float64(f) // (a) of Eq. 3: expected regardless of pdcc
			continue
		}
		if !bp.Rand.Bernoulli(pdcc) {
			continue
		}
		for k := 0; k < f; k++ {
			if !bp.Rand.Bernoulli(pr * pr * pr * (1 - bp.Delta.D1)) {
				blame++
			}
		}
	}
	return blame
}

// SampleScore draws a normalized score after r periods with the given
// compensation (Equation 6), s = −(1/r)·Σ(bᵢ − b̃), verifiers polling with
// probability pdcc.
func (bp *BlameProcess) SampleScore(r int, compensation, pdcc float64) float64 {
	if r < 1 {
		r = 1
	}
	var total float64
	for i := 0; i < r; i++ {
		total += bp.SamplePeriod(pdcc)
	}
	return compensation - total/float64(r)
}
