// Package gpd detects global predicates in distributed computations.
//
// It is a faithful, production-oriented implementation of Mittal & Garg,
// "On Detecting Global Predicates in Distributed Computations" (ICDCS
// 2001), together with every substrate the paper builds on: the
// happened-before computation model with vector clocks and consistent
// cuts, the Cooper–Marzullo global-state lattice, Garg–Waldecker
// conjunctive predicate detection (offline and online), max-flow based
// relational predicate evaluation, minimum chain covers, and the paper's
// NP-hardness constructions with an accompanying SAT and subset-sum
// toolbox.
//
// # The problem
//
// An asynchronous distributed execution only determines a partial order on
// events, so the system passes through one of exponentially many possible
// global states. Possibly(phi) asks whether SOME consistent global state
// (cut) satisfies phi — the right question when hunting violations such as
// "two processes in the critical section". Definitely(phi) asks whether
// EVERY execution consistent with the observation passes through phi.
//
// # The front door
//
// Detect is the single entry point for offline detection: parse (or
// build) a Spec, pick a Modality, and let dispatch choose the detector:
//
//	spec, err := gpd.ParseSpec("sum(tokens) == 2")
//	if err != nil { ... }
//	rep, err := gpd.Detect(c, spec, gpd.WithModality(gpd.ModalityPossibly))
//	if err != nil { ... }
//	fmt.Println(rep.Holds, rep.Witness)
//	fmt.Print(rep.Work) // per-phase work counters and timed spans
//
// The same Spec type and grammar back the gpddetect command line and the
// streaming wire protocol, so a predicate accepted by one surface is
// accepted by all of them.
//
// Detect covers every predicate family the grammar expresses. The
// exhaustive oracles PossiblyGeneric and DefinitelyGeneric decide
// arbitrary cut predicates, and the range helpers (SumRange,
// WeightedRange, InFlightRange, PossiblyWeighted, DefinitelyWeighted)
// take custom EventWeight functions. A boolean that is a function of
// the state rather than a stored 0/1 variable is first derived into one
// with Computation.SetVar, then named in a Spec.
//
// # What this library provides
//
//   - Building and (de)serializing computations: New, ReadTrace, WriteTrace.
//   - Conjunctive predicates (one local predicate per process):
//     all(var), with the Garg–Waldecker CPDHB algorithm; the same
//     detector runs online in the streaming server (cmd/gpdserver).
//   - Singular k-CNF predicates (Sections 3.1–3.3 of the paper):
//     cnf(var) with the polynomial receive-/send-ordered algorithms and
//     the general-case process-subset and chain-cover algorithms,
//     selected by WithStrategy. Detection is NP-complete in general
//     (Theorem 1); the hardness construction itself ships in the
//     reduction toolbox used by cmd/gpdreduce.
//   - Relational sums x1+...+xn relop k (Section 4): sum(var) relop k,
//     and SumRange. Possibly(S = k) is polynomial for unit-step
//     variables and NP-complete otherwise (Theorem 3).
//   - Symmetric boolean predicates (Section 4.3): count(var) relop k,
//     xor(var) and levels(var) by true-count level set.
//   - Exhaustive oracles PossiblyGeneric and DefinitelyGeneric for
//     arbitrary predicates (exponential; useful for testing and small
//     computations).
//   - A deterministic message-passing simulator (NewSimulator and the
//     protocol constructors) to generate realistic traces.
//
// See the examples directory for runnable walkthroughs and EXPERIMENTS.md
// for the reproduction of the paper's claims.
package gpd
