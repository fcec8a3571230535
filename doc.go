// Package lifting is a from-scratch Go reproduction of
//
//	LiFTinG: Lightweight Freerider-Tracking in Gossip
//	R. Guerraoui, K. Huguenin, A.-M. Kermarrec, M. Monod, S. Prusty
//	Middleware 2010
//
// The repository contains the three-phase gossip dissemination protocol the
// paper builds on, LiFTinG's verification machinery (direct verification,
// direct cross-checking, local history auditing), the Alliatrust-like
// reputation substrate, the freerider attack strategies, the closed-form
// analysis of §6, and an experiment harness regenerating every table and
// figure of the evaluation. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
//
// The root package holds only this comment; the implementation lives under
// internal/, one package per subsystem, the runnable entry points under cmd/
// and examples/, and the whole-system benchmark under benchmark/.
package lifting
