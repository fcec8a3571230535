// Package analysis implements the closed-form performance analysis of §6 of
// the paper: expected wrongful blames under message loss (Equations 2–5),
// normalized scores and detection/false-positive bounds (§6.3.1), the
// expected blame of a freerider of degree ∆ (b̃′(∆)), the upload-bandwidth
// gain model, and the entropy-threshold inversion of Equation 7 (§6.3.2).
//
// The standard deviations σ(b) and σ(b′(∆)) are derived here from the same
// Bernoulli loss model (the paper defers their derivation to its technical
// report [8]); they are validated against simulation in the experiment
// suite.
package analysis

import "math"

// Params are the system parameters of the analysis.
type Params struct {
	// F is the fanout.
	F int
	// R is |R|, the (constant) number of chunks requested per proposal.
	R int
	// Loss is pl, the Bernoulli message-loss probability (pr = 1 − pl).
	Loss float64
}

func (p Params) pr() float64 { return 1 - p.Loss }

// DirectVerificationBlame returns b̃dv (Equation 2): the expected wrongful
// blame applied to an honest node per gossip period by direct verification,
//
//	b̃dv = pr(1 − pr²)·f²
func (p Params) DirectVerificationBlame() float64 {
	pr := p.pr()
	return pr * (1 - pr*pr) * float64(p.F) * float64(p.F)
}

// CrossCheckBlameChain returns the (a)-term of Equation 3 — the blame f
// applied when a serve or the ack is lost: pr²(1 − pr^(|R|+1))·f². This
// component accrues regardless of pdcc: acks are always expected. With
// CrossCheckBlameWitness it sums to b̃dcc = pr²(1 − pr^(|R|+4))·f², the
// expected wrongful blame per period from direct cross-checking.
func (p Params) CrossCheckBlameChain() float64 {
	pr := p.pr()
	return pr * pr * (1 - math.Pow(pr, float64(p.R+1))) * float64(p.F) * float64(p.F)
}

// CrossCheckBlameWitness returns the (b)-term of Equation 3 — the
// per-witness blame of 1 when a testimony leg is lost:
// pr²·pr^(|R|+1)·(1 − pr³)·f². This component only accrues when the
// verifier polls, i.e. a fraction pdcc of the time.
func (p Params) CrossCheckBlameWitness() float64 {
	pr := p.pr()
	return pr * pr * math.Pow(pr, float64(p.R+1)) * (1 - pr*pr*pr) * float64(p.F) * float64(p.F)
}

// WrongfulBlame returns b̃ (Equation 5): the total expected wrongful blame
// per gossip period for an honest node with pdcc = 1,
//
//	b̃ = pr(1 + pr − pr² − pr^(|R|+5))·f²
//
// This is the per-period compensation added to every score (§6.2).
func (p Params) WrongfulBlame() float64 {
	pr := p.pr()
	return pr * (1 + pr - pr*pr - math.Pow(pr, float64(p.R+5))) * float64(p.F) * float64(p.F)
}

// WrongfulBlameStd returns σ(b), the standard deviation of the per-period
// wrongful blame of an honest node. Derivation (ours; the paper defers to
// [8]): per partner j of the f partners served, direct verification blames
//
//	Bj = f·1[req lost]·1[prop recv] + (f/|R|)·Bin(|R|, pl)·1[prop+req recv]
//
// and per verifier i of the f verifiers, direct cross-checking blames
//
//	Ci = f·1[ack chain broken] + Σ_{k=1..f} 1[leg lost]·1[chain ok]
//
// with all indicators independent across partners/verifiers. The variance
// sums accordingly.
func (p Params) WrongfulBlameStd() float64 {
	pr := p.pr()
	f := float64(p.F)
	r := float64(p.R)
	pl := 1 - pr

	// Direct verification, one partner.
	// E[Bj] and E[Bj²]:
	meanDV := pr*pl*f + pr*pr*pl*r*(f/r)
	// E[Bj²] = pr·pl·f² + pr²·(f/|R|)²·E[K²], K ~ Bin(|R|, pl).
	ek2 := r*pl*(1-pl) + (r*pl)*(r*pl)
	m2DV := pr*pl*f*f + pr*pr*(f/r)*(f/r)*ek2
	varDV := m2DV - meanDV*meanDV

	// Direct cross-checking, one verifier.
	// Chain-ok probability: proposal+request delivered (pr²) times all |R|
	// serves and the ack delivered (pr^(|R|+1)).
	chainOK := pr * pr * math.Pow(pr, r+1)
	// Broken-chain blame f happens when prop+req delivered but the serve/ack
	// chain broke: probability pr²(1 − pr^(|R|+1)).
	pBreak := pr * pr * (1 - math.Pow(pr, r+1))
	// Given chain ok, each of f witnesses independently fails its 3-leg
	// exchange with probability 1 − pr³.
	pLeg := 1 - pr*pr*pr
	// Ci = f·X + Y·Z, X ~ Bern(pBreak); Z ~ Bern(chainOK) (disjoint from X);
	// Y|Z=1 ~ Bin(f, pLeg).
	meanCC := pBreak*f + chainOK*f*pLeg
	eY2 := f*pLeg*(1-pLeg) + (f*pLeg)*(f*pLeg)
	m2CC := pBreak*f*f + chainOK*eY2
	varCC := m2CC - meanCC*meanCC

	// The number of verifiers per period is Poisson(f) (each of the n·f
	// proposals in the system picks this node with probability 1/n), so by
	// the law of total variance Var(Σ Ci) = f·Var(C) + f·E[C]². This
	// workload randomness is what brings σ(b) to the paper's experimental
	// 25.6; a fixed count of f verifiers would give only ≈19.
	return math.Sqrt(f*varDV + f*varCC + f*meanCC*meanCC)
}

// Delta is the degree of freeriding ∆ = (δ1, δ2, δ3) of §6.3.1: the node
// contacts (1−δ1)·f partners, drops the chunks of a fraction δ2 of its
// servers, and serves (1−δ3)·|R| chunks per request.
type Delta struct {
	D1, D2, D3 float64
}

// Uniform returns ∆ = (δ, δ, δ).
func Uniform(d float64) Delta { return Delta{D1: d, D2: d, D3: d} }

// Gain returns the freerider's saved fraction of upload bandwidth,
// 1 − (1−δ1)(1−δ2)(1−δ3) (§6.3.1).
func (d Delta) Gain() float64 {
	return 1 - (1-d.D1)*(1-d.D2)*(1-d.D3)
}

// FreeriderBlame returns b̃′(∆) (§6.3.1): the expected blame applied to a
// freerider of degree ∆ per gossip period, including wrongful components:
//
//	b̃′(∆) = (1−δ1)·pr(1 − pr²(1−δ3))·f² + δ2·f²
//	      + (1−δ2)·pr²·[pr^(|R|+1)(1 − pr³(1−δ1)) + (1 − pr^(|R|+1))]·f²
func (p Params) FreeriderBlame(d Delta) float64 {
	pr := p.pr()
	f2 := float64(p.F) * float64(p.F)
	r := float64(p.R)
	t1 := (1 - d.D1) * pr * (1 - pr*pr*(1-d.D3)) * f2
	t2 := d.D2 * f2
	t3 := (1 - d.D2) * pr * pr *
		(math.Pow(pr, r+1)*(1-pr*pr*pr*(1-d.D1)) + (1 - math.Pow(pr, r+1))) * f2
	return t1 + t2 + t3
}

// FreeriderBlameStd returns σ(b′(∆)), derived with the same decomposition
// as WrongfulBlameStd with the freerider's deviations folded into the
// per-partner probabilities.
func (p Params) FreeriderBlameStd(d Delta) float64 {
	pr := p.pr()
	f := float64(p.F)
	r := float64(p.R)

	// Direct verification: the freerider is blamed by its (1−δ1)f partners;
	// each requested chunk fails to arrive with probability 1−pr(1−δ3)
	// (dropped or lost).
	partners := (1 - d.D1) * f
	pMiss := 1 - pr*(1-d.D3)
	// Bj = f·1[req lost] + (f/|R|)·Bin(|R|, pMiss)·1[req recv], conditioned
	// on proposal received.
	meanDV := pr*(1-pr)*f + pr*pr*(f/r)*r*pMiss
	ek2 := r*pMiss*(1-pMiss) + (r*pMiss)*(r*pMiss)
	m2DV := pr*(1-pr)*f*f + pr*pr*(f/r)*(f/r)*ek2
	varDV := m2DV - meanDV*meanDV

	// Direct cross-checking: each of the f verifiers sees a broken chain
	// with the δ2-augmented probability; witness legs fail with the
	// δ1-augmented probability.
	chainOK := (1 - d.D2) * pr * pr * math.Pow(pr, r+1)
	pBreak := d.D2*pr*pr + (1-d.D2)*pr*pr*(1-math.Pow(pr, r+1))
	pLeg := 1 - pr*pr*pr*(1-d.D1)
	meanCC := pBreak*f + chainOK*f*pLeg
	eY2 := f*pLeg*(1-pLeg) + (f*pLeg)*(f*pLeg)
	m2CC := pBreak*f*f + chainOK*eY2
	varCC := m2CC - meanCC*meanCC

	// Poisson verifier count, as in WrongfulBlameStd. The δ2 branch adds a
	// fixed blame f per verifier, folded into meanCC's contribution via the
	// total-variance term.
	meanPerVerifier := d.D2*f + (1-d.D2)*meanCC
	varPerVerifier := d.D2*(1-d.D2)*(f-meanCC)*(f-meanCC) + (1-d.D2)*varCC
	v := partners*varDV + f*varPerVerifier + f*meanPerVerifier*meanPerVerifier
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// FalsePositiveBound returns the Bienaymé–Tchebychev upper bound on the
// probability β of wrongfully expelling an honest node after r periods with
// threshold η (< 0):
//
//	β ≤ σ(b)² / (r·η²)
func (p Params) FalsePositiveBound(r int, eta float64) float64 {
	if r <= 0 || eta == 0 {
		return 1
	}
	sigma := p.WrongfulBlameStd()
	bound := sigma * sigma / (float64(r) * eta * eta)
	return math.Min(bound, 1)
}

// DetectionBound returns the Bienaymé–Tchebychev lower bound on the
// probability α of detecting a freerider of degree ∆ after r periods:
//
//	α ≥ 1 − σ(b′(∆))² / (r·(b̃′(∆) − b̃ + η)²)
//
// The freerider's expected normalized score is −(b̃′ − b̃); detection
// requires it to sit below η by a margin the variance cannot bridge. When
// the expected score is above the threshold the bound is vacuous (0).
func (p Params) DetectionBound(d Delta, r int, eta float64) float64 {
	if r <= 0 {
		return 0
	}
	excess := p.FreeriderBlame(d) - p.WrongfulBlame() // expected extra blame per period
	margin := excess + eta                            // distance from −excess down to η
	if margin <= 0 {
		return 0
	}
	sigma := p.FreeriderBlameStd(d)
	bound := 1 - sigma*sigma/(float64(r)*margin*margin)
	return math.Max(bound, 0)
}
