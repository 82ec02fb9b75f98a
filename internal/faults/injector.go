package faults

import (
	"fmt"
	"math/rand"

	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// Stats counts what an injector actually did, for reports and assertions.
type Stats struct {
	FeedbackDropped int64
	FeedbackDelayed int64
}

// Injector is a Plan bound to one network run. It owns the scenario's
// random source, so it must not be shared: every concurrently running
// Network needs its own (Plan.NewInjector is cheap). The network consults
// FeedbackVerdict from its feedback-emission path and schedules Events()
// on its engine at construction; because both happen in event order on a
// private source, a faulted run replays bit-identically regardless of how
// many sibling networks run in parallel.
type Injector struct {
	plan  *Plan
	rng   *rand.Rand
	bound bool
	// burstRun counts consecutive drops per feedback channel so MaxBurst
	// can force delivery.
	burstRun map[burstKey]int
	stats    Stats
}

type burstKey struct {
	link topology.LinkID
	node topology.NodeID // emitting (receiver) side
}

// NewInjector binds the plan for one run, seeding the injector's private
// random source. The same (plan, seed) pair always yields the same fault
// sequence for the same simulation.
func (p *Plan) NewInjector(seed int64) *Injector {
	return &Injector{
		plan:     p,
		rng:      rand.New(rand.NewSource(seed)),
		burstRun: make(map[burstKey]int),
	}
}

// Bind marks the injector attached to a network; attaching one injector to
// two networks would interleave their random draws and destroy replay
// determinism, so the second Bind panics.
func (inj *Injector) Bind() {
	if inj.bound {
		panic("faults: Injector bound to a second network; use Plan.NewInjector per network")
	}
	inj.bound = true
}

// Timeline returns the scheduled fault actuations, sorted by time.
func (inj *Injector) Timeline() []Event { return inj.plan.events }

// FlowOnset returns the (possibly delayed) start time for the flow: the
// later of the scheduled time and any configured onset.
func (inj *Injector) FlowOnset(flowID int, at units.Time) units.Time {
	if onset, ok := inj.plan.onsets[flowID]; ok && onset > at {
		return onset
	}
	return at
}

// FeedbackVerdict decides the fate of one flow-control message about to
// cross link from the receiver on node: dropped, or delivered with extra
// latency. Randomness is drawn in strict call order from the injector's
// private source. When several fault windows match, drop probabilities
// compound and delays add.
func (inj *Injector) FeedbackVerdict(
	link topology.LinkID, node topology.NodeID,
	kind flowcontrol.Kind, now units.Time,
) (drop bool, extra units.Time) {
	for i := range inj.plan.feedback[link] {
		f := &inj.plan.feedback[link][i]
		if !f.active(now) || !f.matches(kind) {
			continue
		}
		if f.dropProb > 0 && !drop {
			key := burstKey{link: link, node: node}
			if f.maxBurst > 0 && inj.burstRun[key] >= f.maxBurst {
				inj.burstRun[key] = 0 // forced delivery caps the loss burst
			} else if inj.rng.Float64() < f.dropProb {
				drop = true
				inj.burstRun[key]++
			} else {
				inj.burstRun[key] = 0
			}
		}
		extra += f.delay
		if f.jitter > 0 {
			extra += units.Time(inj.rng.Int63n(int64(f.jitter)))
		}
	}
	if drop {
		inj.stats.FeedbackDropped++
		return true, 0
	}
	if extra > 0 {
		inj.stats.FeedbackDelayed++
	}
	return false, extra
}

// Stats returns what the injector has done so far.
func (inj *Injector) Stats() Stats { return inj.stats }

// Preset returns a named built-in scenario. These are the rows of the
// fault matrix in EXPERIMENTS.md; list them with PresetNames.
func Preset(name string) (*Spec, error) {
	switch name {
	case "resume-loss":
		// Drop half of all RESUME frames on every switch-to-switch link,
		// under a transient single-link drain squeeze (S1-S2 at 40% for
		// 20 ms) that creates the congestion epoch during which PFC must
		// pause the fabric links. The critically loaded fig9 ring keeps
		// its congestion at the host ports, so without the squeeze the
		// edge-triggered schemes never emit fabric feedback and the loss
		// has nothing to bite. PFC pauses stay reliable, so the first
		// lost RESUME holds that hop shut forever and the ring freezes
		// (the detector reports a wedged channel) — and stays frozen long
		// after the squeeze lifts. GFC emits no RESUME and its rates
		// never reach zero, so it rides out the same squeeze untouched;
		// its own loss tolerance is exercised by "feedback-loss". The
		// squeeze targets S1-S2 by name, so this preset (like
		// "feedback-loss") wants the fig9 ring topology.
		return &Spec{
			Name: "resume-loss",
			Links: []LinkFault{
				{
					Link: "S1-S2",
					Degrade: []Degrade{{
						From:   2 * units.Millisecond,
						Until:  22 * units.Millisecond,
						Factor: 0.4,
					}},
				},
				{
					Link: "*",
					Feedback: []FeedbackFault{{
						DropProb: 0.5,
						Kinds:    []string{"RESUME"},
					}},
				},
			},
		}, nil
	case "feedback-loss":
		// Drop 30% of every flow-control message on switch-to-switch
		// links, at most 3 in a row per channel, under the same S1-S2
		// congestion squeeze as "resume-loss". The burst cap bounds the
		// effective feedback outage at 4 periods for periodically
		// refreshed schemes (CBFC credits, GFC-time, GFC-buffer with
		// Refresh), which ride it out losslessly; PFC's unprotected
		// PAUSE frames are lossy here too, so its ingress buffers
		// overrun — the losslessness violation the invariant layer
		// attributes to the injected faults.
		return &Spec{
			Name: "feedback-loss",
			Links: []LinkFault{
				{
					Link: "S1-S2",
					Degrade: []Degrade{{
						From:   2 * units.Millisecond,
						Until:  22 * units.Millisecond,
						Factor: 0.4,
					}},
				},
				{
					Link: "*",
					Feedback: []FeedbackFault{{
						DropProb: 0.3,
						MaxBurst: 3,
					}},
				},
			},
		}, nil
	case "feedback-delay":
		// Add 20µs fixed + up to 10µs jittered latency to all feedback on
		// switch-to-switch links: stale signals and reordering without
		// loss. Stresses the Cτ' headroom of Theorem 4.1.
		return &Spec{
			Name: "feedback-delay",
			Links: []LinkFault{{
				Link: "*",
				Feedback: []FeedbackFault{{
					Delay:  20 * units.Microsecond,
					Jitter: 10 * units.Microsecond,
				}},
			}},
		}, nil
	case "flap":
		// One switch-to-switch link drops for 8ms mid-run. Held traffic
		// must resume afterwards and the outage must not be reported as a
		// ring deadlock.
		return &Spec{
			Name: "flap",
			Links: []LinkFault{{
				Link: "*",
				Flaps: []Flap{{
					DownAt: 5 * units.Millisecond,
					UpAt:   13 * units.Millisecond,
				}},
			}},
		}, nil
	case "degrade":
		// Every switch-to-switch link runs at 40% capacity for 20ms —
		// a fabric-wide drain squeeze that inflates queues toward their
		// ceilings without ever breaking connectivity.
		return &Spec{
			Name: "degrade",
			Links: []LinkFault{{
				Link: "*",
				Degrade: []Degrade{{
					From:   2 * units.Millisecond,
					Until:  22 * units.Millisecond,
					Factor: 0.4,
				}},
			}},
		}, nil
	default:
		return nil, fmt.Errorf("faults: unknown preset %q (have %v)", name, PresetNames())
	}
}

// PresetNames lists the built-in scenario names.
func PresetNames() []string {
	return []string{"resume-loss", "feedback-loss", "feedback-delay", "flap", "degrade"}
}
