package netsim

import (
	"math/rand"
	"testing"

	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// fullScan is the host NIC round-robin as it was before finished flows left
// node.flows: a cursor over every flow the host ever started, in start order,
// skipping the finished ones and the ones whose pacer is not ready.
type fullScan struct {
	all []*Flow
	rr  int
}

// pick is the old nextFlow: the flow it would release now, or nil.
func (s *fullScan) pick(now units.Time, mtu units.Size) *Flow {
	nf := len(s.all)
	for i, j := 0, s.rr; i < nf; i, j = i+1, succ(j, nf) {
		f := s.all[j]
		if f.Size > 0 && f.released >= f.Size {
			continue
		}
		if na := f.Pacer.NextAllowed(now, min(f.remaining(mtu), mtu)); na > now {
			continue
		}
		s.rr = succ(j, nf)
		return f
	}
	return nil
}

// recordingPacer paces a flow at rate (unpaced when zero) and, at each
// release — the instant refill picks its flow — has the full-list scan pick
// beside it.
type recordingPacer struct {
	rate    units.Rate
	next    units.Time
	release func(f *Flow, now units.Time)
	f       *Flow
}

func (p *recordingPacer) NextAllowed(units.Time, units.Size) units.Time { return p.next }

func (p *recordingPacer) OnRelease(now units.Time, size units.Size) {
	p.release(p.f, now)
	if p.rate > 0 {
		p.next = max(p.next, now) + units.TransmissionTime(size, p.rate)
	}
}

// TestRefillPicksMatchFullListScan runs a k=4 generator — every host keeps
// three flow chains going, each flow's completion starting the next to a
// random host, plus an unbounded flow on every fifth host, half of all flows
// paced below line rate — and at every release compares the flow refill
// picked from the live-flow list with the one the full-list scan picks. The
// scan is fed each flow's start by an event scheduled just before AddFlow's,
// so nothing fires between the two.
func TestRefillPicksMatchFullListScan(t *testing.T) {
	topo := topology.FatTree(4, topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	n, err := New(topo, baseConfig(gfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	hosts := topo.Hosts()
	scans := make(map[topology.NodeID]*fullScan, len(hosts))
	for _, h := range hosts {
		scans[h] = &fullScan{}
	}
	var picks, behind int
	release := func(f *Flow, now units.Time) {
		s := scans[f.Src]
		if want := s.pick(now, n.cfg.MTU); want != f {
			wantID := -1
			if want != nil {
				wantID = want.ID
			}
			t.Fatalf("t=%v host %d: refill picked flow %d, the full-list scan flow %d", now, f.Src, f.ID, wantID)
		}
		picks++
		if len(s.all) > len(n.nodes[f.Src].flows) {
			behind++
		}
	}
	rng := rand.New(rand.NewSource(41))
	id := 0
	var launch func(src topology.NodeID, at units.Time, size units.Size)
	launch = func(src topology.NodeID, at units.Time, size units.Size) {
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		id++
		path, err := tab.Path(src, dst, uint64(id))
		if err != nil {
			t.Fatal(err)
		}
		p := &recordingPacer{release: release}
		if rng.Intn(2) == 0 {
			p.rate = units.Rate(1+rng.Intn(8)) * units.Gbps
		}
		f := &Flow{ID: id, Src: src, Dst: dst, Size: size, Path: path, Pacer: p}
		p.f = f
		if size > 0 {
			f.OnDone = func(done *Flow) {
				launch(done.Src, n.Now(), units.Size(1+rng.Intn(60000)))
			}
		}
		n.Engine().At(at, func(int32) { scans[src].all = append(scans[src].all, f) }, 0)
		if err := n.AddFlow(f, at); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range hosts {
		for c := 0; c < 3; c++ {
			launch(h, units.Time(rng.Intn(5))*units.Microsecond, units.Size(1+rng.Intn(60000)))
		}
		if i%5 == 0 {
			launch(h, 0, 0)
		}
	}
	n.Run(2 * units.Millisecond)
	t.Logf("%d flows, %d picks, %d with finished flows in the full list", id, picks, behind)
	if picks < 10000 || behind < picks/2 {
		t.Fatalf("%d picks, %d with finished flows in the full list: the run exercised too little", picks, behind)
	}
}
