// Package soral is a from-scratch Go implementation of
// "Smoothed Online Resource Allocation in Multi-Tier Distributed Cloud
// Networks" (Jiao, Tulino, Llorca, Jin, Sala; IPDPS 2016 / IEEE-ACM ToN
// 2017): online joint allocation of cloud and network resources across
// cloud tiers under time-varying workloads and prices, with reconfiguration
// costs charged on allocation increases.
//
// This package is the public facade over the implementation packages:
//
//   - the problem model (networks, SLAs, workloads, prices, exact cost
//     accounting, the offline problem P1),
//   - the paper's regularization-based online algorithm with its
//     parameterized competitive ratio (Theorem 1),
//   - the baselines (greedy one-shot, offline optimum, LCP-M) and the
//     predictive controllers (FHC/RHC and the regularized RFHC/RRHC),
//   - the N ≥ 2 tier generalization,
//   - the evaluation harness that regenerates every table and figure of
//     the paper (see cmd/soralbench).
//
// # Quick start
//
//	net, _ := soral.NewNetwork(...)          // clouds, SLAs, capacities, prices
//	in := &soral.Inputs{...}                 // per-slot workloads and prices
//	seq, _ := soral.RunOnline(net, in, soral.DefaultOptions())
//	cost := (&soral.Accountant{Net: net, In: in}).SequenceCost(seq, nil)
//
// See examples/quickstart for a complete runnable program, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the paper-vs-measured results.
package soral

import (
	"io"

	"soral/internal/control"
	"soral/internal/core"
	"soral/internal/eval"
	"soral/internal/model"
	"soral/internal/obs"
	"soral/internal/predict"
)

// ---- Problem model ----

// Network is a two-tier cloud network instance (Section II-A).
type Network = model.Network

// Pair is one SLA-admissible (tier-2, tier-1) combination.
type Pair = model.Pair

// Inputs carries per-slot workloads and operating prices.
type Inputs = model.Inputs

// Decision is one slot's resource allocation.
type Decision = model.Decision

// Accountant scores decision sequences with the exact P1 objective.
type Accountant = model.Accountant

// CostBreakdown separates allocation from reconfiguration cost.
type CostBreakdown = model.CostBreakdown

// NewNetwork builds a two-tier network; see model.NewNetwork.
func NewNetwork(numT2, numT1 int, pairs []Pair, capT2, reconfT2, capNet, priceNet, reconfNet []float64) (*Network, error) {
	return model.NewNetwork(numT2, numT1, pairs, capT2, reconfT2, capNet, priceNet, reconfNet)
}

// NewZeroDecision returns the all-zero allocation (the state before t = 1).
func NewZeroDecision(n *Network) *Decision { return model.NewZeroDecision(n) }

// ---- The online algorithm (the paper's contribution) ----

// Params are the regularization parameters ε, ε′ of the online algorithm.
type Params = core.Params

// Options bundles algorithm parameters with solver tuning and telemetry
// sinks. It is configuration only: an Online run keeps its own solve state.
type Options = core.Options

// Online is the incremental slot-by-slot driver of the online algorithm.
type Online = core.Online

// ScalarInstance is the single-data-center special case (equations 4–6).
type ScalarInstance = core.ScalarInstance

// DefaultParams returns the paper's evaluation defaults (ε = ε′ = 10⁻²).
func DefaultParams() Params { return core.DefaultParams() }

// DefaultOptions returns default algorithm and solver settings.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewOnline prepares an incremental online run.
func NewOnline(n *Network, in *Inputs, opts Options) (*Online, error) {
	return core.NewOnline(n, in, opts)
}

// RunOnline runs the prediction-free online algorithm over the horizon.
func RunOnline(n *Network, in *Inputs, opts Options) ([]*Decision, error) {
	return core.RunOnline(n, in, opts)
}

// ---- Resilience: fallback ladders and graceful degradation ----
//
// Every online slot climbs the P2 fallback ladder on a solver failure and,
// when the whole ladder fails, carries the previous decision forward made
// feasible for the slot. Both are always on; the run report records the
// outcome of every slot.

// Report is the per-run resilience record of an online run: one entry per
// decided slot, marking clean, recovered, and degraded slots.
type Report = core.Report

// SlotReport records the resilience outcome of one slot.
type SlotReport = core.SlotReport

// SlotStatus classifies how one slot's decision was produced.
type SlotStatus = core.SlotStatus

// Slot statuses: solved directly, rescued by a fallback rung, or carried
// forward after every solver attempt failed (see DESIGN.md, "Failure
// semantics & degradation guarantees").
const (
	SlotOK        = core.SlotOK
	SlotRecovered = core.SlotRecovered
	SlotDegraded  = core.SlotDegraded
)

// RunOnlineReport runs the online algorithm and also returns the per-run
// resilience report. A run whose report has no degraded slots satisfied the
// conditions of Theorem 1 at every slot.
func RunOnlineReport(n *Network, in *Inputs, opts Options) ([]*Decision, *Report, error) {
	return core.RunOnlineReport(n, in, opts)
}

// CompetitiveRatio returns Theorem 1's bound r = 1 + |I|·(C(ε)+B(ε′)).
func CompetitiveRatio(n *Network, p Params) float64 { return core.CompetitiveRatio(n, p) }

// ---- Observability: metrics, tracing, run profiles ----

// ObsScope is the nil-safe telemetry handle threaded through the solver
// Options (Options.Obs, ControlConfig.Obs). See DESIGN.md §6.
type ObsScope = obs.Scope

// ObsRegistry is the concurrency-safe metrics registry behind a scope.
type ObsRegistry = obs.Registry

// NewObsRegistry returns an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// NewObsScope builds an enabled telemetry scope; either argument may be nil.
func NewObsScope(reg *ObsRegistry, sink obs.Sink) *ObsScope { return obs.NewScope(reg, sink) }

// NewJSONLSink wraps w in a line-delimited JSON trace sink (one event per
// line, schema pinned by the obs package's golden test).
func NewJSONLSink(w io.Writer) *obs.JSONLSink { return obs.NewJSONLSink(w) }

// ---- Baselines and predictive controllers ----

// ControlConfig carries the shared controller configuration.
type ControlConfig = control.Config

// Oracle supplies (exact or noisy) predictions to the controllers.
type Oracle = predict.Oracle

// NewOracle builds a prediction oracle; errRate 0 is exact, otherwise
// zero-mean Gaussian noise with σ = errRate × series mean (§V-B).
func NewOracle(n *Network, in *Inputs, errRate float64, seed int64) *Oracle {
	return predict.NewOracle(n, in, errRate, seed)
}

// Offline solves P1 with full hindsight (the staircase interior-point path).
func Offline(c *ControlConfig) ([]*Decision, float64, error) { return control.Offline(c) }

// Greedy runs the sequence of one-shot optimizations.
func Greedy(c *ControlConfig) ([]*Decision, error) { return control.Greedy(c) }

// LCPM runs the lazy-capacity-provisioning baseline.
func LCPM(c *ControlConfig) ([]*Decision, error) { return control.LCPM(c) }

// FHC is Fixed Horizon Control (Section IV-A).
func FHC(c *ControlConfig, o *Oracle, w int) ([]*Decision, error) { return control.FHC(c, o, w) }

// RHC is Receding Horizon Control (Section IV-A).
func RHC(c *ControlConfig, o *Oracle, w int) ([]*Decision, error) { return control.RHC(c, o, w) }

// AFHC is Averaging Fixed Horizon Control (Lin et al., the multi-cloud
// predictive baseline discussed in the paper's related work).
func AFHC(c *ControlConfig, o *Oracle, w int) ([]*Decision, error) { return control.AFHC(c, o, w) }

// RFHC is Regularized Fixed Horizon Control (Section IV-C).
func RFHC(c *ControlConfig, o *Oracle, w int) ([]*Decision, error) { return control.RFHC(c, o, w) }

// RRHC is Regularized Receding Horizon Control (Section IV-C).
func RRHC(c *ControlConfig, o *Oracle, w int) ([]*Decision, error) { return control.RRHC(c, o, w) }

// ---- Evaluation harness ----

// ScenarioSpec parameterizes a Section V evaluation instance.
type ScenarioSpec = eval.ScenarioSpec

// Scenario is a fully instantiated evaluation instance.
type Scenario = eval.Scenario

// Suite runs algorithm suites over a scenario.
type Suite = eval.Suite

// BuildScenario assembles topology, prices, and workloads per Section V-A.
func BuildScenario(spec ScenarioSpec) (*Scenario, error) { return eval.Build(spec) }

// NewSuite prepares an evaluation suite with regularization parameter eps.
func NewSuite(s *Scenario, eps float64) *Suite { return eval.NewSuite(s, eps) }
