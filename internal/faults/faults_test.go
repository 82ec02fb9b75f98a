package faults

import (
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// ringTopo builds the fig9-style 3-switch ring with one host per switch.
func ringTopo(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.RingHosts(3, 1, topology.DefaultLinkParams())
}

func TestParseRoundTrip(t *testing.T) {
	src := `{
		"name": "demo",
		"links": [
			{"link": "S1-S2",
			 "feedback": [{"drop_prob": 0.5, "max_burst": 2, "kinds": ["RESUME"],
			               "delay_ns": 1000, "jitter_ns": 500, "from_ns": 0, "until_ns": 2000000}],
			 "flaps": [{"down_at_ns": 1000000, "up_at_ns": 2000000}],
			 "degrade": [{"from_ns": 100, "until_ns": 200, "factor": 0.5}]},
			{"link": "*", "feedback": [{"drop_prob": 0.1}]}
		]
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "demo" || len(s.Links) != 2 {
		t.Fatalf("unexpected spec shape: %+v", s)
	}
	fb := s.Links[0].Feedback[0]
	if fb.DropProb != 0.5 || fb.MaxBurst != 2 || fb.Delay != 1000 || fb.Jitter != 500 {
		t.Errorf("feedback fault mis-parsed: %+v", fb)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":    `{"links": [{"link": "A-B", "nope": 1}]}`,
		"bad drop prob":    `{"links": [{"link": "A-B", "feedback": [{"drop_prob": 1.5}]}]}`,
		"no effect":        `{"links": [{"link": "A-B", "feedback": [{}]}]}`,
		"unknown kind":     `{"links": [{"link": "A-B", "feedback": [{"drop_prob": 0.1, "kinds": ["XON"]}]}]}`,
		"empty window":     `{"links": [{"link": "A-B", "feedback": [{"drop_prob": 0.1, "from_ns": 10, "until_ns": 10}]}]}`,
		"inverted flap":    `{"links": [{"link": "A-B", "flaps": [{"down_at_ns": 20, "up_at_ns": 10}]}]}`,
		"degrade factor 1": `{"links": [{"link": "A-B", "degrade": [{"from_ns": 0, "factor": 1.0}]}]}`,
		"empty link":       `{"links": [{"link": ""}]}`,
	}
	for name, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: Parse accepted %s", name, src)
		}
	}
	// Host-side faults are not part of the format: the strict parser names
	// the field.
	_, err := Parse([]byte(`{"hosts": [{"host": "H1", "bursts": [{"at_ns": 0, "bytes": 1500}]}]}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "hosts"`) {
		t.Errorf("a hosts section: err = %v, want an unknown-field error naming it", err)
	}
}

func TestCompileResolvesPatterns(t *testing.T) {
	topo := ringTopo(t)
	spec := &Spec{
		Links: []LinkFault{
			{Link: "*", Feedback: []FeedbackFault{{DropProb: 0.5}}},
			{Link: "S1-S2", Flaps: []Flap{{DownAt: 10, UpAt: 20}}},
			{Link: "S1-*", Degrade: []Degrade{{From: 5, Until: 15, Factor: 0.5}}},
		},
	}
	p, err := spec.Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	// "*" matches the 3 ring (switch-switch) links only.
	if got := len(p.feedback); got != 3 {
		t.Errorf("feedback on %d links, want 3 switch-switch links", got)
	}
	for id := range p.feedback {
		l := topo.Link(id)
		if topo.Node(l.A).Kind != topology.Switch || topo.Node(l.B).Kind != topology.Switch {
			t.Errorf("feedback compiled onto non switch-switch link %d", l.ID)
		}
	}
	// Events: 1 flap (down+up) + S1's 3 links degrade (2 each).
	if got, want := len(p.events), 2+6; got != want {
		t.Fatalf("compiled %d events, want %d", got, want)
	}
	for i := 1; i < len(p.events); i++ {
		if p.events[i].At < p.events[i-1].At {
			t.Fatalf("events not sorted by time: %+v", p.events)
		}
	}
}

func TestCompileRejectsUnmatched(t *testing.T) {
	topo := ringTopo(t)
	for _, spec := range []*Spec{
		{Links: []LinkFault{{Link: "S1-S9", Flaps: []Flap{{DownAt: 1}}}}},
		{Links: []LinkFault{{Link: "bogus", Flaps: []Flap{{DownAt: 1}}}}},
	} {
		if _, err := spec.Compile(topo); err == nil {
			t.Errorf("Compile accepted unresolvable spec %+v", spec)
		}
	}
	// Host-attached links resolve via "H1-*" but "*" skips them.
	p, err := (&Spec{Links: []LinkFault{{Link: "H1-*", Flaps: []Flap{{DownAt: 1}}}}}).Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.events) != 1 {
		t.Errorf("H1-* matched %d links, want 1", len(p.events))
	}
}

// TestCompileRejectsSameKindOverlap pins that two flaps, or two degrades,
// resolving to one link may neither overlap nor touch: the earlier window's
// restore would cut the later one short, or at a shared instant cancel its
// start. An open-ended window runs to the end of the run, and windows of
// different kinds on one link stay legal.
func TestCompileRejectsSameKindOverlap(t *testing.T) {
	ms := units.Millisecond
	degrade := func(link string, from, until units.Time, f float64) LinkFault {
		return LinkFault{Link: link, Degrade: []Degrade{{From: from * ms, Until: until * ms, Factor: f}}}
	}
	flap := func(link string, down, up units.Time) LinkFault {
		return LinkFault{Link: link, Flaps: []Flap{{DownAt: down * ms, UpAt: up * ms}}}
	}
	for _, tc := range []struct {
		name  string
		links []LinkFault
		want  string // error substring; "" means legal
	}{
		{"degrade cross-pattern", []LinkFault{degrade("S1-S2", 2, 22, 0.4), degrade("*", 5, 10, 0.5)},
			"links[0].degrade[0] and links[1].degrade[0] overlap or touch on link S1-S2"},
		{"degrade touching out of order", []LinkFault{{Link: "S1-S2", Degrade: []Degrade{
			{From: 10 * ms, Until: 20 * ms, Factor: 0.5}, {From: 2 * ms, Until: 10 * ms, Factor: 0.4}}}},
			"links[0].degrade[0] and links[0].degrade[1] overlap or touch on link S1-S2"},
		{"degrade open-ended", []LinkFault{degrade("S1-S2", 2, 0, 0.4), degrade("S2-S1", 30, 40, 0.5)},
			"links[0].degrade[0] and links[1].degrade[0]"},
		{"flap cross-pattern", []LinkFault{flap("S1-S2", 5, 13), flap("*", 7, 9)},
			"links[0].flaps[0] and links[1].flaps[0] overlap or touch on link S1-S2"},
		{"flap touching", []LinkFault{flap("S1-S2", 5, 13), flap("S1-*", 13, 20)},
			"links[0].flaps[0] and links[1].flaps[0]"},
		{"disjoint degrades", []LinkFault{degrade("S1-S2", 2, 10, 0.4), degrade("*", 11, 20, 0.5)}, ""},
		{"disjoint flaps", []LinkFault{flap("*", 2, 4), flap("S1-S2", 5, 0)}, ""},
		{"flap inside a degrade", []LinkFault{degrade("S1-S2", 2, 22, 0.4), flap("S1-S2", 5, 13)}, ""},
	} {
		_, err := (&Spec{Links: tc.links}).Compile(ringTopo(t))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Compile = %v, want it accepted", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Compile = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestEventKindNames pins the fault names reports carry: String and
// MarshalText agree for every kind and an unknown value.
func TestEventKindNames(t *testing.T) {
	for k, want := range map[EventKind]string{
		LinkDown: "link-down", LinkUp: "link-up", RateScale: "rate-scale",
		FeedbackDrop: "feedback-drop", FeedbackDelay: "feedback-delay", 9: "fault(9)",
	} {
		text, err := k.MarshalText()
		if got := k.String(); got != want || string(text) != want || err != nil {
			t.Errorf("kind %d: String %q, MarshalText %q (%v), want %q", uint8(k), got, text, err, want)
		}
	}
}

// mustCompile compiles a spec the test wrote itself.
func mustCompile(t *testing.T, s *Spec, topo *topology.Topology) *Plan {
	t.Helper()
	p, err := s.Compile(topo)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInjectorDeterminism(t *testing.T) {
	topo := ringTopo(t)
	spec, err := Preset("feedback-loss")
	if err != nil {
		t.Fatal(err)
	}
	plan := mustCompile(t, spec, topo)
	link := topo.LinkBetween(topo.MustLookup("S1"), topo.MustLookup("S2"))

	type verdict struct {
		drop  bool
		extra units.Time
	}
	run := func(seed int64) []verdict {
		inj := plan.NewInjector(seed)
		out := make([]verdict, 0, 200)
		for i := 0; i < 200; i++ {
			d, e := inj.FeedbackVerdict(link.ID, link.A,
				flowcontrol.KindStage, units.Time(i)*units.Microsecond)
			out = append(out, verdict{d, e})
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at verdict %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 200-verdict sequences")
	}
}

func TestFeedbackVerdictMaxBurst(t *testing.T) {
	topo := ringTopo(t)
	plan := mustCompile(t, &Spec{Links: []LinkFault{{
		Link:     "S1-S2",
		Feedback: []FeedbackFault{{DropProb: 1.0, MaxBurst: 3}},
	}}}, topo)
	inj := plan.NewInjector(1)
	link := topo.LinkBetween(topo.MustLookup("S1"), topo.MustLookup("S2"))

	run := 0
	for i := 0; i < 40; i++ {
		drop, _ := inj.FeedbackVerdict(link.ID, link.A, flowcontrol.KindStage, units.Time(i))
		if drop {
			run++
			if run > 3 {
				t.Fatalf("verdict %d: %d consecutive drops despite max_burst 3", i, run)
			}
		} else {
			if run != 3 {
				t.Errorf("verdict %d delivered after a run of only %d drops (p=1)", i, run)
			}
			run = 0
		}
	}
	if got := inj.Stats().FeedbackDropped; got != 30 {
		t.Errorf("dropped %d of 40, want 30 (3 of every 4)", got)
	}
}

func TestFeedbackVerdictKindFilter(t *testing.T) {
	topo := ringTopo(t)
	spec, err := Preset("resume-loss")
	if err != nil {
		t.Fatal(err)
	}
	plan := mustCompile(t, spec, topo)
	inj := plan.NewInjector(7)
	link := topo.LinkBetween(topo.MustLookup("S1"), topo.MustLookup("S2"))

	for i := 0; i < 100; i++ {
		for _, k := range []flowcontrol.Kind{
			flowcontrol.KindPause, flowcontrol.KindStage,
			flowcontrol.KindCredit, flowcontrol.KindQueue,
		} {
			if drop, _ := inj.FeedbackVerdict(link.ID, link.A, k, units.Time(i)); drop {
				t.Fatalf("resume-loss dropped a %s message", k)
			}
		}
	}
	drops := 0
	for i := 0; i < 400; i++ {
		if drop, _ := inj.FeedbackVerdict(link.ID, link.A, flowcontrol.KindResume, units.Time(i)); drop {
			drops++
		}
	}
	// p=0.5 over 400 draws: [140, 260] is > 6 sigma.
	if drops < 140 || drops > 260 {
		t.Errorf("resume-loss dropped %d/400 RESUME frames, want ~200", drops)
	}
}

func TestFeedbackVerdictWindowAndDelay(t *testing.T) {
	topo := ringTopo(t)
	plan := mustCompile(t, &Spec{Links: []LinkFault{{
		Link: "S1-S2",
		Feedback: []FeedbackFault{{
			Delay: 5 * units.Microsecond,
			From:  10 * units.Microsecond,
			Until: 20 * units.Microsecond,
		}},
	}}}, topo)
	inj := plan.NewInjector(1)
	link := topo.LinkBetween(topo.MustLookup("S1"), topo.MustLookup("S2"))

	check := func(at units.Time, want units.Time) {
		t.Helper()
		drop, extra := inj.FeedbackVerdict(link.ID, link.A, flowcontrol.KindStage, at)
		if drop || extra != want {
			t.Errorf("at %v: (drop=%v, extra=%v), want (false, %v)", at, drop, extra, want)
		}
	}
	check(9*units.Microsecond, 0)
	check(10*units.Microsecond, 5*units.Microsecond)
	check(19*units.Microsecond, 5*units.Microsecond)
	check(20*units.Microsecond, 0)
	if got := inj.Stats().FeedbackDelayed; got != 2 {
		t.Errorf("FeedbackDelayed = %d, want 2", got)
	}
}

func TestBindOnce(t *testing.T) {
	topo := ringTopo(t)
	plan := mustCompile(t, &Spec{Links: []LinkFault{{
		Link: "S1-S2", Flaps: []Flap{{DownAt: 1}},
	}}}, topo)
	inj := plan.NewInjector(1)
	inj.Bind()
	defer func() {
		if recover() == nil {
			t.Error("second Bind did not panic")
		}
	}()
	inj.Bind()
}

func TestPresetsCompileOnRing(t *testing.T) {
	topo := ringTopo(t)
	for _, name := range PresetNames() {
		spec, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Name != name {
			t.Errorf("preset %q has name %q", name, spec.Name)
		}
		if _, err := spec.Compile(topo); err != nil {
			t.Errorf("preset %q does not compile on the fig9 ring: %v", name, err)
		}
	}
	if _, err := Preset("no-such"); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Errorf("Preset(no-such) error = %v", err)
	}
}
