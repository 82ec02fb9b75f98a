// Package faults is a deterministic, seeded fault-injection layer for the
// simulator. A Spec is a JSON-serialisable scenario description: per-link
// fault plans of feedback-message drop/delay/reorder with bounded jitter,
// link down/up flaps and transient rate degradation. A Spec is compiled once
// against a topology into an immutable Plan; each Network then gets its own
// Injector (Plan.NewInjector), which owns the scenario's random source.
//
// The package deliberately does not import netsim — the dependency points
// the other way, exactly like internal/metrics: netsim consults the
// Injector behind a single nil check (netsim.Config.Faults), so a nil
// injector costs nothing on the hot path. All fault actuation is scheduled
// through the network's own event engine, and every random draw happens in
// event order on the injector's private source, so a faulted run is
// bit-identical for every worker count (see internal/runner).
//
// Fault model, mapped to the paper's failure discussion and the triggers
// DCFIT identifies:
//
//   - Feedback loss/delay: control frames (PAUSE/RESUME, stage, credit)
//     are dropped with a probability or delayed with bounded jitter. A lost
//     RESUME is the canonical rare trigger that leaves PFC paused forever;
//     GFC's stage/credit feedback is either refreshed (buffer-based with
//     Refresh) or periodic (time-based), so it tolerates the same loss.
//   - Link flaps: a link goes administratively down and later comes back.
//     In-flight packets still arrive; queued traffic holds. Deadlock
//     detection must not confuse the outage with circular wait.
//   - Rate degradation: a link transiently runs at a fraction of its
//     capacity (autoneg downshift, FEC retrain), squeezing drains.
package faults

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// Spec is one fault scenario. All times are absolute simulation times in
// nanoseconds; a zero Until means "for the rest of the run".
type Spec struct {
	// Name labels the scenario in reports.
	Name string `json:"name,omitempty"`
	// Links lists per-link fault plans. Link patterns: "A-B" names the
	// link between nodes A and B, "A-*" every live link at A, and "*"
	// every live switch-to-switch link.
	Links []LinkFault `json:"links,omitempty"`
}

// LinkFault is the fault plan of one link pattern.
type LinkFault struct {
	Link     string          `json:"link"`
	Feedback []FeedbackFault `json:"feedback,omitempty"`
	Flaps    []Flap          `json:"flaps,omitempty"`
	Degrade  []Degrade       `json:"degrade,omitempty"`
}

// FeedbackFault perturbs flow-control messages crossing the link (in either
// direction) during [From, Until).
type FeedbackFault struct {
	// DropProb is the per-message drop probability in [0,1].
	DropProb float64 `json:"drop_prob,omitempty"`
	// MaxBurst bounds consecutive drops per (link, receiver) channel:
	// after MaxBurst drops in a row the next message is forced through.
	// Zero means unbounded. A bound is what makes theorem-level safety
	// statements under loss checkable: the effective feedback latency
	// becomes τ + (MaxBurst+1)·(refresh or period).
	MaxBurst int `json:"max_burst,omitempty"`
	// Kinds restricts the fault to the named message kinds
	// ("PAUSE", "RESUME", "STAGE", "CREDIT", "QUEUE"); empty means all.
	Kinds []string `json:"kinds,omitempty"`
	// Delay is a fixed extra latency added to every affected message.
	Delay units.Time `json:"delay_ns,omitempty"`
	// Jitter adds a uniform random [0, Jitter) component on top of
	// Delay. Because the draw is per message, jitter can reorder
	// messages relative to each other.
	Jitter units.Time `json:"jitter_ns,omitempty"`
	// From / Until bound the fault window; Until zero means open-ended.
	From  units.Time `json:"from_ns,omitempty"`
	Until units.Time `json:"until_ns,omitempty"`
}

// Flap takes the link administratively down at DownAt and back up at UpAt
// (zero UpAt: it stays down).
type Flap struct {
	DownAt units.Time `json:"down_at_ns"`
	UpAt   units.Time `json:"up_at_ns,omitempty"`
}

// Degrade runs the link at Factor × capacity during [From, Until).
type Degrade struct {
	From   units.Time `json:"from_ns"`
	Until  units.Time `json:"until_ns,omitempty"`
	Factor float64    `json:"factor"`
}

// Parse decodes a Spec from JSON, rejecting unknown fields.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("faults: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads a Spec from a JSON file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = path
	}
	return s, nil
}

// Validate checks the spec's internal consistency (windows ordered,
// probabilities and factors in range, kinds known).
func (s *Spec) Validate() error {
	for i, lf := range s.Links {
		if lf.Link == "" {
			return fmt.Errorf("faults: links[%d]: empty link pattern", i)
		}
		for j, fb := range lf.Feedback {
			at := fmt.Sprintf("links[%d].feedback[%d]", i, j)
			if fb.DropProb < 0 || fb.DropProb > 1 {
				return fmt.Errorf("faults: %s: drop_prob %v outside [0,1]", at, fb.DropProb)
			}
			if fb.MaxBurst < 0 {
				return fmt.Errorf("faults: %s: negative max_burst", at)
			}
			if fb.Delay < 0 || fb.Jitter < 0 {
				return fmt.Errorf("faults: %s: negative delay or jitter", at)
			}
			if fb.From < 0 || (fb.Until != 0 && fb.Until <= fb.From) {
				return fmt.Errorf("faults: %s: window [%v,%v) is empty", at, fb.From, fb.Until)
			}
			if fb.DropProb == 0 && fb.Delay == 0 && fb.Jitter == 0 {
				return fmt.Errorf("faults: %s: no effect (zero drop_prob, delay and jitter)", at)
			}
			if _, err := kindMask(fb.Kinds); err != nil {
				return fmt.Errorf("faults: %s: %w", at, err)
			}
		}
		for j, fl := range lf.Flaps {
			if fl.DownAt < 0 || (fl.UpAt != 0 && fl.UpAt <= fl.DownAt) {
				return fmt.Errorf("faults: links[%d].flaps[%d]: window [%v,%v) is empty",
					i, j, fl.DownAt, fl.UpAt)
			}
		}
		for j, dg := range lf.Degrade {
			if dg.Factor <= 0 || dg.Factor >= 1 {
				return fmt.Errorf("faults: links[%d].degrade[%d]: factor %v outside (0,1)",
					i, j, dg.Factor)
			}
			if dg.From < 0 || (dg.Until != 0 && dg.Until <= dg.From) {
				return fmt.Errorf("faults: links[%d].degrade[%d]: window [%v,%v) is empty",
					i, j, dg.From, dg.Until)
			}
		}
	}
	return nil
}

// kindMask converts kind names to a bitmask over flowcontrol.Kind; zero
// means "all kinds". "PAUSE" and "RESUME" cover both the class-scoped PFC
// frames and BFC's queue-scoped QPAUSE/QRESUME — a queue resume IS a
// resume, so the fault presets written against PFC bite BFC identically.
func kindMask(names []string) (uint32, error) {
	var mask uint32
	for _, name := range names {
		switch strings.ToUpper(name) {
		case "PAUSE":
			mask |= 1<<uint(flowcontrol.KindPause) | 1<<uint(flowcontrol.KindQueuePause)
		case "RESUME":
			mask |= 1<<uint(flowcontrol.KindResume) | 1<<uint(flowcontrol.KindQueueResume)
		case "STAGE":
			mask |= 1 << uint(flowcontrol.KindStage)
		case "CREDIT":
			mask |= 1 << uint(flowcontrol.KindCredit)
		case "QUEUE":
			mask |= 1 << uint(flowcontrol.KindQueue)
		default:
			return 0, fmt.Errorf("unknown message kind %q", name)
		}
	}
	return mask, nil
}

// EventKind names a fault: the scheduled link actuations a Plan compiles
// into its timeline, and the per-message feedback perturbations an
// Injector decides. The metrics registry records injected faults by it.
type EventKind uint8

// Fault kinds.
const (
	// LinkDown / LinkUp flip the link's administrative state.
	LinkDown EventKind = iota
	LinkUp
	// RateScale runs the link at Factor × nominal capacity
	// (Factor 1 restores it).
	RateScale
	// FeedbackDrop: a flow-control message was destroyed in flight.
	FeedbackDrop
	// FeedbackDelay: a flow-control message was delivered late.
	FeedbackDelay
)

func (k EventKind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case RateScale:
		return "rate-scale"
	case FeedbackDrop:
		return "feedback-drop"
	case FeedbackDelay:
		return "feedback-delay"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// MarshalText encodes the kind by name in reports.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one scheduled fault actuation; the simulator schedules every
// compiled event on its engine at construction.
type Event struct {
	At     units.Time
	Kind   EventKind
	Link   topology.LinkID
	Factor float64 // RateScale
}

// compiledFeedback is one feedback fault bound to a concrete link.
type compiledFeedback struct {
	dropProb float64
	maxBurst int
	kinds    uint32 // bitmask over flowcontrol.Kind; 0 = all
	delay    units.Time
	jitter   units.Time
	from     units.Time
	until    units.Time // 0 = open-ended
}

func (f *compiledFeedback) active(now units.Time) bool {
	return now >= f.from && (f.until == 0 || now < f.until)
}

func (f *compiledFeedback) matches(k flowcontrol.Kind) bool {
	return f.kinds == 0 || f.kinds&(1<<uint(k)) != 0
}

// Plan is a Spec compiled against one topology: link patterns are resolved,
// timeline events sorted. A Plan is immutable and may be shared across
// concurrently running networks; each network needs its own Injector.
type Plan struct {
	// feedback[linkID] lists the feedback faults on that link.
	feedback map[topology.LinkID][]compiledFeedback
	events   []Event
}

// Compile resolves the spec against topo. Patterns that match nothing are
// an error (a silently inert fault plan is a debugging trap), and so are two
// flaps, or two degrades, that overlap or touch on one link.
func (s *Spec) Compile(topo *topology.Topology) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{feedback: make(map[topology.LinkID][]compiledFeedback)}
	held := make(map[topology.LinkID][]window)
	for i, lf := range s.Links {
		links, err := resolveLinks(topo, lf.Link)
		if err != nil {
			return nil, fmt.Errorf("faults: links[%d]: %w", i, err)
		}
		for _, l := range links {
			for _, fb := range lf.Feedback {
				mask, _ := kindMask(fb.Kinds) // validated above
				p.feedback[l.ID] = append(p.feedback[l.ID], compiledFeedback{
					dropProb: fb.DropProb, maxBurst: fb.MaxBurst, kinds: mask,
					delay: fb.Delay, jitter: fb.Jitter,
					from: fb.From, until: fb.Until,
				})
			}
			for j, fl := range lf.Flaps {
				if err := claim(held, topo, l, window{"flaps", i, j, fl.DownAt, fl.UpAt}); err != nil {
					return nil, err
				}
				p.events = append(p.events, Event{At: fl.DownAt, Kind: LinkDown, Link: l.ID})
				if fl.UpAt > 0 {
					p.events = append(p.events, Event{At: fl.UpAt, Kind: LinkUp, Link: l.ID})
				}
			}
			for j, dg := range lf.Degrade {
				if err := claim(held, topo, l, window{"degrade", i, j, dg.From, dg.Until}); err != nil {
					return nil, err
				}
				p.events = append(p.events, Event{
					At: dg.From, Kind: RateScale, Link: l.ID, Factor: dg.Factor,
				})
				if dg.Until > 0 {
					p.events = append(p.events, Event{
						At: dg.Until, Kind: RateScale, Link: l.ID, Factor: 1,
					})
				}
			}
		}
	}
	// Stable sort keeps same-time events in spec order, so compilation is
	// deterministic and so is the engine's same-timestamp FIFO.
	sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].At < p.events[j].At })
	return p, nil
}

// window is the span of links[i].<kind>[j] on one link; a zero until runs
// to the end of the run.
type window struct {
	kind        string
	i, j        int
	from, until units.Time
}

// claim adds w to the windows held on link l. A flap or degrade compiles to
// a start and a restore, so one that overlaps or touches another of its kind
// on the same link would cut that window short or cancel its start.
func claim(held map[topology.LinkID][]window, topo *topology.Topology, l *topology.Link, w window) error {
	for _, o := range held[l.ID] {
		if o.kind == w.kind && (o.until == 0 || w.from <= o.until) && (w.until == 0 || o.from <= w.until) {
			return fmt.Errorf("faults: links[%d].%s[%d] and links[%d].%s[%d] overlap or touch on link %s-%s",
				o.i, o.kind, o.j, w.i, w.kind, w.j, topo.Node(l.A).Name, topo.Node(l.B).Name)
		}
	}
	held[l.ID] = append(held[l.ID], w)
	return nil
}

// resolveLinks expands a link pattern. "*" matches live switch-to-switch
// links; "A-*" (or "*-A") every live link at A; "A-B" the live link between
// A and B.
func resolveLinks(topo *topology.Topology, pattern string) ([]*topology.Link, error) {
	if pattern == "*" {
		var out []*topology.Link
		for i := 0; i < topo.NumLinks(); i++ {
			l := topo.Link(topology.LinkID(i))
			if l.Failed {
				continue
			}
			if topo.Node(l.A).Kind == topology.Switch && topo.Node(l.B).Kind == topology.Switch {
				out = append(out, l)
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("pattern %q matches no switch-to-switch link", pattern)
		}
		return out, nil
	}
	a, b, ok := strings.Cut(pattern, "-")
	if !ok {
		return nil, fmt.Errorf("link pattern %q is not \"A-B\", \"A-*\" or \"*\"", pattern)
	}
	if a == "*" {
		a, b = b, a
	}
	na, found := topo.Lookup(a)
	if !found {
		return nil, fmt.Errorf("link pattern %q: no node named %q", pattern, a)
	}
	if b == "*" {
		var out []*topology.Link
		for _, at := range topo.Ports(na) {
			if !at.Link.Failed {
				out = append(out, at.Link)
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("pattern %q matches no live link", pattern)
		}
		return out, nil
	}
	nb, found := topo.Lookup(b)
	if !found {
		return nil, fmt.Errorf("link pattern %q: no node named %q", pattern, b)
	}
	l := topo.LinkBetween(na, nb)
	if l == nil {
		return nil, fmt.Errorf("link pattern %q: no live link between %s and %s", pattern, a, b)
	}
	return []*topology.Link{l}, nil
}
