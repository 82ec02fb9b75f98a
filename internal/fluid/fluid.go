// Package fluid provides a continuous (fluid) model of one GFC-controlled
// queue: the deterministic dynamics behind Figures 4–6 and the Theorem
// 4.1/5.1 proofs. Where package netsim simulates packets, fluid integrates
// rates — useful for parameter design (how big must the buffer be for a
// given τ?), for validating the theorems' bounds, and for plotting the
// idealised evolutions the paper sketches.
package fluid

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/units"
)

// Mapping abstracts the queue-to-rate mapping function: the conceptual
// linear mapping and the practical stage table both satisfy it.
type Mapping interface {
	// RateAt maps an instantaneous queue length to the sending rate.
	RateAt(q units.Size) units.Rate
	// LineRate is the uncontrolled rate C.
	LineRate() units.Rate
}

// Continuous adapts core.ContinuousMapping.
type Continuous struct{ M core.ContinuousMapping }

// RateAt implements Mapping.
func (c Continuous) RateAt(q units.Size) units.Rate { return c.M.Rate(q) }

// LineRate implements Mapping.
func (c Continuous) LineRate() units.Rate { return c.M.C }

// Staged adapts a core.StageTable.
type Staged struct{ T *core.StageTable }

// RateAt implements Mapping.
func (s Staged) RateAt(q units.Size) units.Rate { return s.T.RateFor(q) }

// LineRate implements Mapping.
func (s Staged) LineRate() units.Rate { return s.T.C }

// Drain is a time-varying draining rate.
type Drain func(units.Time) units.Rate

// ConstantDrain drains at rate r forever.
func ConstantDrain(r units.Rate) Drain {
	return func(units.Time) units.Rate { return r }
}

// Config parameterises one fluid run.
type Config struct {
	Mapping Mapping
	Drain   Drain
	// Tau is the feedback latency: the sender's rate at time t follows
	// the queue at t − Tau.
	Tau units.Time
	// Step is the integration step; default 100 ns.
	Step units.Time
	// Horizon is the run length; default 5 ms.
	Horizon units.Time
}

// Result carries the integrated trajectories.
type Result struct {
	// Queue and Rate sample the trajectory at every integration step
	// (downsample before plotting).
	Queue *stats.Series
	Rate  *stats.Series
	// QMax is the maximum queue length reached.
	QMax units.Size
	// Steady is the mean queue over the final quarter of the horizon.
	Steady units.Size
}

// Run integrates the model.
func Run(cfg Config) (*Result, error) {
	if cfg.Mapping == nil || cfg.Drain == nil {
		return nil, fmt.Errorf("fluid: Mapping and Drain are required")
	}
	if cfg.Step == 0 {
		cfg.Step = 100 * units.Nanosecond
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 5 * units.Millisecond
	}
	if cfg.Tau < 0 {
		return nil, fmt.Errorf("fluid: negative Tau")
	}
	steps := int(cfg.Horizon / cfg.Step)
	lag := int(cfg.Tau / cfg.Step)
	res := &Result{
		Queue: &stats.Series{T: make([]units.Time, 0, steps), V: make([]float64, 0, steps)},
		Rate:  &stats.Series{T: make([]units.Time, 0, steps), V: make([]float64, 0, steps)},
	}

	hist := make([]float64, steps)
	var q, qmax float64
	rate := cfg.Mapping.LineRate()

	for i := 0; i < steps; i++ {
		now := units.Time(i) * cfg.Step
		hist[i] = q
		if i <= lag {
			rate = cfg.Mapping.LineRate()
		} else {
			rate = cfg.Mapping.RateAt(units.Size(hist[i-lag]))
		}
		rd := cfg.Drain(now)
		q += (float64(rate) - float64(rd)) / 8 * cfg.Step.Seconds()
		if q < 0 {
			q = 0
		}
		if q > qmax {
			qmax = q
		}
		res.Queue.Append(now, q)
		res.Rate.Append(now, float64(rate))
	}
	res.QMax = units.Size(qmax)
	res.Steady = units.Size(res.Queue.MeanAfter(cfg.Horizon * 3 / 4))
	return res, nil
}
