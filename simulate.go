package gpd

import (
	"github.com/distributed-predicates/gpd/internal/simulator"
)

// Simulation types, re-exported so examples and downstream users can
// generate realistic traces without touching internal packages.
type (
	// Simulator runs message-passing processes deterministically and
	// records the execution as a Computation.
	Simulator = simulator.Simulator
	// Process is the behaviour of one simulated process.
	Process = simulator.Process
	// Ctx is the per-callback world interface of a simulated process.
	Ctx = simulator.Ctx
	// Payload is the application content of a simulated message.
	Payload = simulator.Payload
	// SimOption configures a Simulator.
	SimOption = simulator.Option
)

// NewSimulator builds a simulator over the given processes with a seeded
// deterministic scheduler and reliable non-FIFO channels.
func NewSimulator(seed int64, procs []Process, opts ...SimOption) *Simulator {
	return simulator.New(seed, procs, opts...)
}

// WithMaxEvents bounds the number of recorded events.
func WithMaxEvents(n int) SimOption { return simulator.WithMaxEvents(n) }

// Protocol constructors and their variable names.
var (
	// NewTokenRingProcs builds a token-passing ring (variable VarTokens).
	NewTokenRingProcs = simulator.NewTokenRingProcs
	// NewFlawedMutexProcs builds the deliberately racy mutual exclusion
	// protocol (variable VarCS).
	NewFlawedMutexProcs = simulator.NewFlawedMutexProcs
	// NewVoterProcs builds gossiping voters (variable VarYes).
	NewVoterProcs = simulator.NewVoterProcs
	// NewGossiperProcs builds a generic random workload (variables
	// VarFlag and VarLevel).
	NewGossiperProcs = simulator.NewGossiperProcs
	// NewElectionProcs builds a Chang–Roberts leader election ring
	// (variables VarLeader and VarCandidate).
	NewElectionProcs = simulator.NewElectionProcs
	// NewTwoPhaseProcs builds a two-phase commit instance (variables
	// VarVotedYes, VarCommitted, VarAborted); the buggy flag plants a
	// premature-commit bug for the detectors to find.
	NewTwoPhaseProcs = simulator.NewTwoPhaseProcs
)

// Variable names written by the bundled protocols.
const (
	VarTokens    = simulator.VarTokens
	VarCS        = simulator.VarCS
	VarYes       = simulator.VarYes
	VarFlag      = simulator.VarFlag
	VarLevel     = simulator.VarLevel
	VarLeader    = simulator.VarLeader
	VarCandidate = simulator.VarCandidate
	VarVotedYes  = simulator.VarVotedYes
	VarCommitted = simulator.VarCommitted
	VarAborted   = simulator.VarAborted
)
