package eval

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"soral/internal/control"
	"soral/internal/core"
	"soral/internal/model"
	"soral/internal/obs"
	"soral/internal/predict"
	"soral/internal/resilience"
	"soral/internal/staircase"
)

// Run is the outcome of one algorithm on one scenario.
type Run struct {
	Algorithm string
	Decisions []*model.Decision
	Cost      model.CostBreakdown
	CumCost   []float64
	Elapsed   time.Duration

	// Report is the per-run resilience/telemetry record; currently only the
	// online algorithm produces one (nil otherwise).
	Report *core.Report
}

// Suite executes algorithms on a scenario with shared settings.
type Suite struct {
	Scen *Scenario
	Cfg  *control.Config

	// Eps is the regularization parameter ε = ε′ (paper default 10⁻²).
	Eps float64

	// Obs is the telemetry scope threaded into every run (nil = disabled).
	Obs *obs.Scope
}

// defaultObs holds the process-wide scope picked up by NewSuite, so harnesses
// whose suites are constructed internally (the experiment functions) can
// still attach telemetry.
var defaultObs atomic.Pointer[obs.Scope]

// SetDefaultObs installs the scope every subsequently-built Suite picks up.
// Pass nil to clear it.
func SetDefaultObs(sc *obs.Scope) { defaultObs.Store(sc) }

// DefaultObs returns the process-wide scope (nil when unset).
func DefaultObs() *obs.Scope { return defaultObs.Load() }

// defaultHealth mirrors defaultObs for the degradation tracker, so suites
// built inside Record report to the serving process's /healthz and
// watchdog.
var defaultHealth atomic.Pointer[resilience.Health]

// SetDefaultHealth installs the degradation tracker every subsequently-built
// Suite picks up. Pass nil to clear it.
func SetDefaultHealth(h *resilience.Health) { defaultHealth.Store(h) }

// DefaultHealth returns the process-wide tracker (nil when unset).
func DefaultHealth() *resilience.Health { return defaultHealth.Load() }

// NewSuite prepares a suite with the given ε (0 selects the paper default).
func NewSuite(s *Scenario, eps float64) *Suite {
	if eps <= 0 {
		eps = 1e-2
	}
	opts := core.DefaultOptions()
	opts.Params = core.Params{EpsT2: eps, EpsNet: eps, EpsT1: eps}
	suite := &Suite{
		Scen: s,
		Eps:  eps,
		Cfg: &control.Config{
			Net:      s.Net,
			In:       s.In,
			CoreOpts: opts,
		},
	}
	if sc := DefaultObs(); sc != nil {
		suite.WithObs(sc)
	}
	if h := DefaultHealth(); h != nil {
		suite.WithHealth(h)
	}
	return suite
}

// WithObs attaches a telemetry scope to the suite (and its control config)
// and returns the suite for chaining.
func (s *Suite) WithObs(sc *obs.Scope) *Suite {
	s.Obs = sc
	s.Cfg.Obs = sc
	return s
}

// WithWarmStart toggles the warm-started incremental re-solve layer
// (DESIGN.md §13): the online pipeline carries its warm-start state across
// slots, and window solves reuse the staircase backend through a cache.
// Off — the default — is bit-identical to the pre-warm-start pipeline.
func (s *Suite) WithWarmStart(on bool) *Suite {
	s.Cfg.CoreOpts.WarmStart = on
	if on {
		if s.Cfg.StairCache == nil {
			s.Cfg.StairCache = staircase.NewCache()
		}
	} else {
		s.Cfg.StairCache = nil
	}
	return s
}

func (s *Suite) account(name string, seq []*model.Decision, start time.Time) *Run {
	if name != "online" {
		// The online pipeline journals at commit time inside core; everyone
		// else gets exact post-hoc records here.
		s.journalPostHoc(seq)
	}
	acct := &model.Accountant{Net: s.Scen.Net, In: s.Scen.In}
	return &Run{
		Algorithm: name,
		Decisions: seq,
		Cost:      acct.SequenceCost(seq, nil),
		CumCost:   acct.CumulativeCost(seq, nil),
		Elapsed:   time.Since(start),
	}
}

// Offline runs the clairvoyant optimum.
func (s *Suite) Offline() (*Run, error) {
	start := time.Now()
	seq, _, err := control.Offline(s.Cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: offline: %w", err)
	}
	return s.account("offline", seq, start), nil
}

// Greedy runs the one-shot baseline.
func (s *Suite) Greedy() (*Run, error) {
	start := time.Now()
	seq, err := control.Greedy(s.Cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: greedy: %w", err)
	}
	return s.account("one-shot", seq, start), nil
}

// Online runs the paper's prediction-free algorithm.
func (s *Suite) Online() (*Run, error) {
	start := time.Now()
	seq, report, err := control.OnlineReport(s.Cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: online: %w", err)
	}
	run := s.account("online", seq, start)
	run.Report = report
	return run, nil
}

// LCPM runs the LCP-M baseline.
func (s *Suite) LCPM() (*Run, error) {
	start := time.Now()
	seq, err := control.LCPM(s.Cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: lcp-m: %w", err)
	}
	return s.account("lcp-m", seq, start), nil
}

// Predictive runs one of the four predictive controllers with a window of w
// slots and the given prediction error rate (0 = accurate).
func (s *Suite) Predictive(name string, w int, errRate float64, seed int64) (*Run, error) {
	oracle := predict.NewOracle(s.Scen.Net, s.Scen.In, errRate, seed)
	start := time.Now()
	var seq []*model.Decision
	var err error
	switch name {
	case "fhc":
		seq, err = control.FHC(s.Cfg, oracle, w)
	case "rhc":
		seq, err = control.RHC(s.Cfg, oracle, w)
	case "rfhc":
		seq, err = control.RFHC(s.Cfg, oracle, w)
	case "rrhc":
		seq, err = control.RRHC(s.Cfg, oracle, w)
	case "afhc":
		seq, err = control.AFHC(s.Cfg, oracle, w)
	default:
		return nil, fmt.Errorf("eval: unknown predictive controller %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("eval: %s(w=%d): %w", name, w, err)
	}
	return s.account(name, seq, start), nil
}

// Table is a rendered experiment result: one header and aligned rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// SortRows orders rows lexicographically for stable output.
func (t *Table) SortRows() {
	sort.Slice(t.Rows, func(a, b int) bool {
		ra, rb := t.Rows[a], t.Rows[b]
		for i := range ra {
			if i >= len(rb) {
				return false
			}
			if ra[i] != rb[i] {
				return ra[i] < rb[i]
			}
		}
		return len(ra) < len(rb)
	})
}
