package fluid

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// update rewrites testdata/golden_hashes.json with the hashes of the current
// build:
//
//	go test ./internal/fluid -run TestRunNetGolden -update
//
// Only after verifying that a behaviour change is intended: the goldens pin
// RunNet's output bit for bit across refactors of its step loop.
var update = flag.Bool("update", false, "rewrite RunNet golden hashes")

const goldenPath = "testdata/golden_hashes.json"

// netHash folds a run into an FNV-1a hash: every NetResult field and every
// channel's RecordContinuous totals (bytes in/out, peak, final occupancy,
// drops), floats by their IEEE-754 bits. Two runs hash equal iff they
// produced bit-identical results.
func netHash(res *NetResult, reg *metrics.Registry, chans []NetChannel) uint64 {
	h := fnv.New64a()
	mix := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	mix(uint64(res.End), uint64(res.Delivered), uint64(res.Drops), uint64(res.HighWater),
		b(res.Deadlocked), uint64(res.DeadlockAt), uint64(res.Steps), uint64(len(res.FlowDelivered)))
	for _, d := range res.FlowDelivered {
		mix(uint64(d))
	}
	for _, ch := range chans {
		idx := reg.ChannelIndex(ch.Node, ch.Port)
		c := reg.Counter(idx)
		mix(uint64(c.BytesIn), uint64(c.BytesOut), uint64(c.HighWater), uint64(c.Drops), uint64(c.LastDepartAt))
		if s := reg.Series(idx); s != nil {
			mix(uint64(s.T[len(s.T)-1]), math.Float64bits(s.V[len(s.V)-1]))
		}
	}
	return h.Sum64()
}

// bindRegistry binds a registry to every port of topo, keeping the last
// occupancy sample per channel (RecordContinuous's final occupancy).
func bindRegistry(topo *topology.Topology, buffer units.Size) *metrics.Registry {
	reg := metrics.New(metrics.Options{SeriesCap: 1})
	var nodes []metrics.NodeInfo
	for n := 0; n < topo.NumNodes(); n++ {
		id := topology.NodeID(n)
		ni := metrics.NodeInfo{ID: id, Name: topo.Node(id).Name, Host: topo.Node(id).Kind == topology.Host}
		for _, at := range topo.Ports(id) {
			ni.Ports = append(ni.Ports, metrics.PortInfo{PeerName: topo.Node(at.Peer).Name, Buffer: buffer})
		}
		nodes = append(nodes, ni)
	}
	reg.Bind(nodes)
	return reg
}

// netFixture is one RunNet input: the topology its registry binds to, the
// switch channels' law and the config.
type netFixture struct {
	topo   *topology.Topology
	buffer units.Size
	law    func() Mapping
	cfg    NetConfig
}

// run integrates the fixture with run (RunNet or the reference) on fresh
// mappings (OnOff carries state) and a fresh registry, and returns the result
// with the registry it filled.
func (f netFixture) run(t *testing.T, run func(NetConfig) (*NetResult, error)) (*NetResult, *metrics.Registry) {
	t.Helper()
	cfg := f.cfg
	cfg.Channels = append([]NetChannel(nil), f.cfg.Channels...)
	for i := range cfg.Channels {
		if cfg.Channels[i].Mapping != nil {
			cfg.Channels[i].Mapping = f.law()
		}
	}
	cfg.Metrics = bindRegistry(f.topo, f.buffer)
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg.Metrics
}

// Laws the fixtures run: GFC-buffer's stage table, the continuous mapping
// with its 8 Kbps floor (time-based with a Period, conceptual without) and
// PFC's hysteresis.
func continuousLaw() Mapping {
	m := core.ContinuousMapping{C: 10 * units.Gbps, B0: 153 * units.KB, Bm: 294 * units.KB}
	return Floored{M: Continuous{m}, Min: 8 * units.Kbps}
}

func pfcLaw(buffer units.Size, tau units.Time) func() Mapping {
	xoff := buffer - units.BytesIn(10*units.Gbps, tau)
	if xoff < 4*units.KB {
		xoff = buffer / 2
	}
	return func() Mapping { return &OnOff{C: 10 * units.Gbps, XOFF: xoff, XON: xoff - 3*units.KB} }
}

// mixFlows bounds every fifth flow and delays every seventh, so flows finish
// (done flips) and join mid-run.
func mixFlows(flows []NetFlow) []NetFlow {
	out := append([]NetFlow(nil), flows...)
	for i := range out {
		if i%5 == 1 {
			out[i].Size = units.Size(100+37*i) * units.KB
		}
		if i%7 == 2 {
			out[i].Start = units.Millisecond + units.Time(i)*10*units.Microsecond
		}
	}
	return out
}

// fatTreeFixture is the k=4 fat-tree fixture under one law.
func fatTreeFixture(t *testing.T, seed int64, perHost int, buffer units.Size, tau, period units.Time, mk func() Mapping) netFixture {
	topo, flows := fatTreeFlows(t, seed, perHost)
	return netFixture{topo: topo, buffer: buffer, law: mk, cfg: NetConfig{
		Channels: chansFor(t, topo, buffer, tau, period, mk),
		Flows:    flows,
	}}
}

// pfcRing is four switches in a ring, one host each; the flow from host i
// crosses crossings[i] ring links clockwise. Three each is a cyclic buffer
// dependency PFC wedges, so the stall watch ends the run; past four a flow
// feeds a channel twice.
func pfcRing(t *testing.T, buffer units.Size, crossings ...int) netFixture {
	t.Helper()
	const n = 4
	topo := topology.New()
	var hosts, sw [n]topology.NodeID
	for i := range hosts {
		hosts[i] = topo.AddHost(fmt.Sprintf("H%d", i))
		sw[i] = topo.AddSwitch(fmt.Sprintf("S%d", i))
	}
	var up, ring [n]*topology.Link // host i – switch i, switch i – switch i+1
	for i := range hosts {
		up[i] = topo.Link(topo.AddLink(hosts[i], sw[i], 10*units.Gbps, units.Microsecond))
	}
	for i := range sw {
		ring[i] = topo.Link(topo.AddLink(sw[i], sw[(i+1)%n], 10*units.Gbps, units.Microsecond))
	}
	var flows []NetFlow
	for i, m := range crossings {
		path := []routing.Hop{{Node: hosts[i], Link: up[i]}}
		for j := 0; j < m; j++ {
			path = append(path, routing.Hop{Node: sw[(i+j)%n], Link: ring[(i+j)%n]})
		}
		path = append(path, routing.Hop{Node: sw[(i+m)%n], Link: up[(i+m)%n]})
		flows = append(flows, NetFlow{Path: path})
	}
	tau := 10 * units.Microsecond
	mk := pfcLaw(buffer, tau)
	return netFixture{topo: topo, buffer: buffer, law: mk, cfg: NetConfig{
		Channels: chansFor(t, topo, buffer, tau, 0, mk),
		Flows:    flows,
	}}
}

// goldenFixtures are the runs TestRunNetGolden pins: each law, bounded and
// late flows, a buffer too small for its law (drops), and a stalling ring.
func goldenFixtures(t *testing.T) map[string]netFixture {
	staged := fatTreeFixture(t, 3, 4, 300*units.KB, 16*units.Microsecond, 0, stagedSim(t))
	staged.cfg.Flows = mixFlows(staged.cfg.Flows)
	staged.cfg.Step, staged.cfg.Horizon = 2*units.Microsecond, 10*units.Millisecond

	timed := fatTreeFixture(t, 3, 4, 300*units.KB, 16*units.Microsecond, 52400*units.Nanosecond, continuousLaw)
	timed.cfg.Step, timed.cfg.Horizon = 2*units.Microsecond, 25*units.Millisecond

	timedMixed := fatTreeFixture(t, 5, 3, 300*units.KB, 16*units.Microsecond, 4*units.Microsecond, continuousLaw)
	timedMixed.cfg.Flows = mixFlows(timedMixed.cfg.Flows)
	timedMixed.cfg.Step, timedMixed.cfg.Horizon = 2*units.Microsecond, 10*units.Millisecond

	conceptual := fatTreeFixture(t, 7, 2, 300*units.KB, 12*units.Microsecond, 0, continuousLaw)
	conceptual.cfg.Flows = mixFlows(conceptual.cfg.Flows)
	conceptual.cfg.Horizon = 4 * units.Millisecond

	pfc := fatTreeFixture(t, 3, 4, 300*units.KB, 16*units.Microsecond, 0, pfcLaw(300*units.KB, 16*units.Microsecond))
	pfc.cfg.Flows = mixFlows(pfc.cfg.Flows)
	pfc.cfg.Step, pfc.cfg.Horizon = 2*units.Microsecond, 10*units.Millisecond

	drops := fatTreeFixture(t, 2, 4, 40*units.KB, 16*units.Microsecond, 0, continuousLaw)
	drops.cfg.Step, drops.cfg.Horizon = 2*units.Microsecond, 5*units.Millisecond

	ring := pfcRing(t, 60*units.KB, 3, 3, 3, 3)
	ring.cfg.Horizon = 20 * units.Millisecond

	return map[string]netFixture{
		"staged-mixed":     staged,
		"time-period":      timed,
		"time-short-mixed": timedMixed,
		"conceptual-mixed": conceptual,
		"pfc-mixed":        pfc,
		"tiny-buffer":      drops,
		"pfc-ring-stall":   ring,
	}
}

// TestRunNetGolden pins RunNet's output on the fixtures above against
// recorded FNV-1a hashes. A mismatch means the solver's arithmetic changed —
// a refactor of the step loop must reproduce every float bit for bit.
func TestRunNetGolden(t *testing.T) {
	want := map[string]string{}
	data, err := os.ReadFile(goldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("corrupt %s: %v", goldenPath, err)
		}
	case os.IsNotExist(err) && *update:
	default:
		t.Fatalf("reading %s: %v (run with -update to record)", goldenPath, err)
	}
	fixtures := goldenFixtures(t)
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	got := map[string]string{}
	for _, name := range names {
		f := fixtures[name]
		t.Run(name, func(t *testing.T) {
			res, reg := f.run(t, RunNet)
			t.Logf("steps %d end %v deadlocked %v drops %d high water %v delivered %v",
				res.Steps, res.End, res.Deadlocked, res.Drops, res.HighWater, res.Delivered)
			h := fmt.Sprintf("%016x", netHash(res, reg, f.cfg.Channels))
			got[name] = h
			if *update {
				return
			}
			if w, ok := want[name]; !ok {
				t.Fatalf("no golden recorded for %s (run with -update)", name)
			} else if h != w {
				t.Errorf("hash %s, golden %s — RunNet's results changed", h, w)
			}
		})
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
