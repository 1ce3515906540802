package control

import (
	"fmt"

	"soral/internal/core"
	"soral/internal/model"
	"soral/internal/predict"
)

// FHC is Fixed Horizon Control (Section IV-A): at slots t = 0, w, 2w, …
// solve P1 over the predicted window {t, …, t+w−1} and apply the whole
// window's decisions.
func FHC(c *Config, oracle *predict.Oracle, w int) ([]*model.Decision, error) {
	if w < 1 {
		return nil, fmt.Errorf("control: FHC window %d", w)
	}
	span := c.span("fhc")
	defer span.End()
	prev := model.NewZeroDecision(c.Net)
	out := make([]*model.Decision, 0, c.In.T)
	for t := 0; t < c.In.T; {
		win := oracle.Predict(t, w)
		planned, _, err := c.solveWindow(win, prev, nil)
		if err != nil {
			return nil, fmt.Errorf("control: FHC block at %d: %w", t, err)
		}
		for k, d := range planned {
			applied, err := c.repair(t+k, d, prev)
			if err != nil {
				return nil, err
			}
			out = append(out, applied)
			prev = applied
		}
		t += win.T
	}
	return out, nil
}

// RHC is Receding Horizon Control (Section IV-A): at every slot solve P1
// over the predicted window {t, …, t+w−1} but apply only the first decision.
func RHC(c *Config, oracle *predict.Oracle, w int) ([]*model.Decision, error) {
	if w < 1 {
		return nil, fmt.Errorf("control: RHC window %d", w)
	}
	span := c.span("rhc")
	defer span.End()
	prev := model.NewZeroDecision(c.Net)
	out := make([]*model.Decision, 0, c.In.T)
	for t := 0; t < c.In.T; t++ {
		win := oracle.Predict(t, w)
		planned, _, err := c.solveWindow(win, prev, nil)
		if err != nil {
			return nil, fmt.Errorf("control: RHC slot %d: %w", t, err)
		}
		applied, err := c.repair(t, planned[0], prev)
		if err != nil {
			return nil, err
		}
		out = append(out, applied)
		prev = applied
	}
	return out, nil
}

// regChain incrementally extends the regularized decision chain
// x̂_0, x̂_1, … (the online algorithm's trajectory), computing each x̂_τ
// exactly once — from the prediction available when slot τ first enters a
// window — as prescribed for RFHC/RRHC in Section IV-C.
type regChain struct {
	c     *Config
	chain []*model.Decision
}

// extend makes sure x̂ is known for every slot in [0, upto]. win holds the
// predicted inputs for {t, …}; slot τ uses window row τ−t.
func (rc *regChain) extend(t int, win *model.Inputs, upto int) error {
	for tau := len(rc.chain); tau <= upto; tau++ {
		prev := model.NewZeroDecision(rc.c.Net)
		if tau > 0 {
			prev = rc.chain[tau-1]
		}
		row := tau - t
		if row < 0 || row >= win.T {
			return fmt.Errorf("control: regularized chain slot %d outside window at %d", tau, t)
		}
		dec, _, err := core.SolveP2Resilient(rc.c.Net, win, row, prev, rc.c.coreOpts())
		if err != nil {
			return fmt.Errorf("control: P2 chain slot %d: %w", tau, err)
		}
		rc.chain = append(rc.chain, dec)
	}
	return nil
}

// RFHC is Regularized Fixed Horizon Control (Section IV-C): per block,
// extend the regularized chain over the window, keep the window-end chain
// decision x̂_{t+w−1} pinned, re-solve P1 inside the window against that
// pin, and apply the window.
func RFHC(c *Config, oracle *predict.Oracle, w int) ([]*model.Decision, error) {
	if w < 1 {
		return nil, fmt.Errorf("control: RFHC window %d", w)
	}
	span := c.span("rfhc")
	defer span.End()
	rc := &regChain{c: c}
	prev := model.NewZeroDecision(c.Net)
	out := make([]*model.Decision, 0, c.In.T)
	for t := 0; t < c.In.T; {
		win := oracle.Predict(t, w)
		last := t + win.T - 1
		if err := rc.extend(t, win, last); err != nil {
			return nil, err
		}
		var planned []*model.Decision
		if win.T == 1 {
			planned = []*model.Decision{rc.chain[last]}
		} else {
			inner, _, err := c.solveWindow(win.Window(0, win.T-1), prev, rc.chain[last])
			if err != nil {
				return nil, fmt.Errorf("control: RFHC block at %d: %w", t, err)
			}
			planned = append(inner, rc.chain[last])
		}
		for k, d := range planned {
			applied, err := c.repair(t+k, d, prev)
			if err != nil {
				return nil, err
			}
			out = append(out, applied)
			prev = applied
		}
		t += win.T
	}
	return out, nil
}

// RRHC is Regularized Receding Horizon Control (Section IV-C): at every
// slot, extend the regularized chain to the window end, pin x̂_{t+w−1},
// re-solve P1 over {t, …, t+w−2} from the applied previous decision, and
// apply only slot t.
func RRHC(c *Config, oracle *predict.Oracle, w int) ([]*model.Decision, error) {
	if w < 1 {
		return nil, fmt.Errorf("control: RRHC window %d", w)
	}
	span := c.span("rrhc")
	defer span.End()
	rc := &regChain{c: c}
	prev := model.NewZeroDecision(c.Net)
	out := make([]*model.Decision, 0, c.In.T)
	for t := 0; t < c.In.T; t++ {
		win := oracle.Predict(t, w)
		last := t + win.T - 1
		if err := rc.extend(t, win, last); err != nil {
			return nil, err
		}
		var planned *model.Decision
		if win.T == 1 {
			planned = rc.chain[last]
		} else {
			inner, _, err := c.solveWindow(win.Window(0, win.T-1), prev, rc.chain[last])
			if err != nil {
				return nil, fmt.Errorf("control: RRHC slot %d: %w", t, err)
			}
			planned = inner[0]
		}
		applied, err := c.repair(t, planned, prev)
		if err != nil {
			return nil, err
		}
		out = append(out, applied)
		prev = applied
	}
	return out, nil
}

// Online runs the paper's prediction-free online algorithm under this
// package's Config (thin wrapper over core.RunOnline for harness symmetry).
func Online(c *Config) ([]*model.Decision, error) {
	seq, _, err := OnlineReport(c)
	return seq, err
}

// OnlineReport is Online returning the per-run resilience report as well,
// wrapped in a per-horizon span. The report is valid for the decided prefix
// even on error.
func OnlineReport(c *Config) ([]*model.Decision, *core.Report, error) {
	span := c.span("online")
	defer span.End()
	opts := c.coreOpts()
	if opts.Obs != nil {
		opts.Obs = opts.Obs.Solver("online")
	}
	return core.RunOnlineReport(c.Net, c.In, opts)
}
