package netsim

import (
	"fmt"
	"math"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/eventsim"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// Network is a runnable simulation instance. Each Network owns its own
// event engine and shares no mutable state with any other, so independent
// instances may run concurrently on different goroutines (the
// internal/runner worker pool relies on exactly this).
type Network struct {
	cfg   Config
	topo  *topology.Topology
	eng   *eventsim.Engine
	nodes []node // by id; ports point at their owner here
	flows []*Flow
	drops int64

	// One handler per kind of event, bound once in New; each event's
	// argument names what it concerns: the channel for a transmission
	// completion, an arrival (the receiving port's) or a kick, the host for
	// a refill, the slot for a feedback delivery, the flow for a start.
	txDoneFn, arriveFn, kickFn, refillFn, deliverFn, startFn func(int32)

	// metrics is cfg.Metrics, cached so the hot path pays one nil check
	// when observability is disabled.
	metrics *metrics.Registry
	// faults is cfg.Faults, cached for the same single-nil-check reason.
	faults *faults.Injector

	delivered units.Size // total bytes delivered to hosts, credited beside Flow.Delivered
	ingresses int        // live switch ingress buffers: one IngressState each

	// Struct-of-arrays hot-path state. Per-channel arrays are indexed by
	// the dense channel index port.cb — a channel is a port — which is the
	// topology's numbering (ChannelBases), as the metrics registry's
	// ChannelIndex is: one index addresses a channel everywhere. Dense
	// arrays keep each iteration's working set contiguous and make the
	// per-port construction cost a handful of bulk allocations instead of
	// ~10 small slices per port.
	ports       []port            // arena; node.ports are runs of it
	occupancy   []units.Size      // ingress buffer occupancy
	progress    []ingressProgress // ingress forwarding-progress records
	queuedBytes []units.Size      // egress backlog
	rrVoq       []int32           // round-robin cursor over VOQs / input ports
	inq         []pktQueue        // ingress FIFOs (SchedInputQueued/SchedBlocking)
	inqOut      []int16           // egress port of each ingress FIFO's head, -1 when empty (pushInq/popInq)
	// fc is the wired scheme's bank: every channel's sender and receiver
	// state, indexed by the same channel index. limiters is its
	// Limiters() — every sender's rate limiter by value when the scheme is
	// rate-gated (GFC-buffer, GFC-time, conceptual GFC), nil otherwise —
	// which trySend and completeTx read and write in place.
	fc       flowcontrol.Bank
	limiters []flowcontrol.RateLimiter
	// Ready masks, one word per egress channel; see scheduler.go. inReady bit
	// i: the owner's input i has its FIFO head bound for this egress
	// (pushInq/popInq). slotReady bit s: queue slot s of this egress is
	// non-empty (enqueue/dequeue).
	inReady   []uint64
	slotReady []uint64
	// voqs and fedBytes have port-dependent strides; see port.voqBase and
	// port.fedBase. fedBytes is nil under SchedInputQueued, where the
	// switches queue at ingress and nothing reads it.
	voqs     []pktQueue
	fedBytes []units.Size

	// Per-flow queue state, kept when the bank gates each of a channel's
	// physical queues (fc.Queues() > 0, BFC). All nil/zero otherwise, so
	// the disabled cost is one int compare on the hot path. fq is
	// fc.Queues(); qAssign maps flow ID → current assignment per channel;
	// slotFlows counts assigned flows per physical queue with the same
	// (voqBase + slot) indexing as voqs.
	fq        int
	qAssign   []map[int]flowAssign
	slotFlows []int32

	// fbObs, when non-nil, is the feedback observer (SetFeedbackObserver).
	fbObs func(ch int, m flowcontrol.Message)
	// fbSlots carries the feedback messages in flight, one slot each, from
	// Emit to the delivery event naming the slot; fbFree lists the idle
	// slots (-1: none), so messages wait out their own delays in any order
	// and the steady state allocates nothing.
	fbSlots []fbSlot
	fbFree  int32

	// Packet free list, per network: deterministic (the collector never
	// drains it), a LIFO linked through Packet.next, and fed by arena
	// chunks so a run costs a few chunk allocations rather than one per
	// live packet. blocks is the newest chunk, carved up to carved and
	// linked to those before it, which Close hands on to the next network;
	// closed refuses further use.
	freeHead *Packet
	blocks   *pktBlock
	carved   int
	closed   bool
}

// New builds a simulation of topo under cfg. Every live channel direction
// is wired into one flow-control bank; a bank that gates each of a channel's
// physical queues runs the switches FIFO over that many queues per egress.
func New(topo *topology.Topology, cfg Config) (*Network, error) {
	cfg.FillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Network{topo: topo, eng: eventsim.New(), fbFree: -1}
	n.txDoneFn = func(ch int32) { n.completeTx(&n.ports[ch]) }
	n.arriveFn = func(ch int32) {
		p := &n.ports[ch]
		n.arrive(p, p.popInFlight())
	}
	n.kickFn = func(ch int32) {
		p := &n.ports[ch]
		p.kickAt = units.Never
		n.kick(p)
	}
	n.refillFn = func(id int32) {
		h := &n.nodes[id]
		h.refillAt = units.Never
		n.refill(h)
	}
	n.deliverFn = n.deliver
	n.startFn = n.start
	nn := topo.NumNodes()
	bases := topo.ChannelBases()
	chans := bases[nn]
	n.fc = cfg.FlowControl((*bankEnv)(n), chans)
	n.fq = n.fc.Queues()
	if n.fq > maxRadix {
		return nil, fmt.Errorf("netsim: the wired scheme has %d queues per channel; at most %d", n.fq, maxRadix)
	}
	if n.fq > 0 {
		cfg.Scheduling = SchedFIFO // the physical queues replace ingress FIFOs and VOQs
	}
	n.cfg = cfg

	// Pass 1: size the dense arrays.
	totalVoqs, totalFed := 0, 0
	for id := 0; id < nn; id++ {
		ats := topo.Ports(topology.NodeID(id))
		if len(ats) > math.MaxInt16 {
			return nil, fmt.Errorf("netsim: node %s has %d ports; a packet's arrival port holds at most %d",
				topo.Node(topology.NodeID(id)).Name, len(ats), math.MaxInt16)
		}
		if len(ats) > maxRadix && cfg.Scheduling != SchedFIFO {
			return nil, fmt.Errorf("netsim: node %s has %d ports; %s scheduling supports at most %d per node",
				topo.Node(topology.NodeID(id)).Name, len(ats), cfg.Scheduling, maxRadix)
		}
		totalVoqs += len(ats) * n.egressSlots(len(ats))
		totalFed += len(ats) * len(ats)
	}
	n.ports = make([]port, chans)
	n.occupancy = make([]units.Size, chans)
	n.progress = make([]ingressProgress, chans)
	n.queuedBytes = make([]units.Size, chans)
	n.rrVoq = make([]int32, chans)
	n.inq = make([]pktQueue, chans)
	n.inqOut = make([]int16, chans)
	for ch := range n.inqOut {
		n.inqOut[ch] = -1
	}
	n.inReady = make([]uint64, chans)
	n.slotReady = make([]uint64, chans)
	n.voqs = make([]pktQueue, totalVoqs)
	if cfg.Scheduling != SchedInputQueued {
		n.fedBytes = make([]units.Size, totalFed)
	}
	if n.fq > 0 {
		n.qAssign = make([]map[int]flowAssign, chans)
		n.slotFlows = make([]int32, totalVoqs)
	}

	// Pass 2: build nodes and ports, assigning each port its bases. The
	// topology numbers the channels: port i of node id is bases[id]+i.
	n.nodes = make([]node, nn)
	vb, fb := 0, 0
	for id := range n.nodes {
		tn := topo.Node(topology.NodeID(id))
		nd := &n.nodes[id]
		cb := bases[id]
		*nd = node{id: tn.ID, kind: tn.Kind, cb: cb, refillAt: units.Never}
		ats := topo.Ports(tn.ID)
		nd.ports = n.ports[cb:bases[id+1]:bases[id+1]]
		slots := n.egressSlots(len(ats))
		for i, at := range ats {
			n.ports[cb+i] = port{
				owner: nd, local: i, link: at.Link, failed: at.Link.Failed,
				delay: at.Link.Delay, capacity: at.Link.Capacity,
				kickAt: units.Never,
				sched:  cfg.Scheduling,
				cb:     cb + i, voqBase: vb, slots: slots, fedBase: fb,
				buffer: cfg.ingressBuffer(tn.Kind),
			}
			vb += slots
			fb += len(ats)
		}
	}
	// Resolve each port's peer now that every node has its ports.
	for i := range n.ports {
		p := &n.ports[i]
		far := p.link.Other(p.owner.id)
		p.peer = &n.nodes[far].ports[p.link.PortOn(far)]
	}
	// Wire the bank: for channel u→v, the sender sits on u's port and the
	// receiver on v's port.
	for id := range n.nodes {
		nd := &n.nodes[id]
		for i := range nd.ports {
			p := &nd.ports[i]
			if p.failed {
				continue
			}
			if nd.kind == topology.Switch {
				n.ingresses++
			}
			if err := n.fc.Wire(p.cb, p.peer.cb, cfg.ChannelParams(p.link, nd.kind)); err != nil {
				return nil, fmt.Errorf("netsim: channel %s->%s: %w",
					topo.Node(p.peer.owner.id).Name, topo.Node(nd.id).Name, err)
			}
		}
	}
	n.limiters = n.fc.Limiters()
	// Bind the metrics registry before receivers start: initial credit
	// adverts already flow through Emit and must be counted. Ceilings and
	// stage tables come from the bank.
	if reg := cfg.Metrics; reg != nil {
		n.metrics = reg
		BindRegistry(reg, topo, cfg, func(node topology.NodeID, port int) (units.Size, *core.StageTable) {
			return n.fc.Bound(bases[node] + port)
		})
	}
	// Bind the fault injector and schedule its timeline. Binding claims
	// the injector for this network (a second bind panics), and the
	// scheduled closures are the only per-event allocations — fault
	// timelines are a handful of events, never hot-path.
	if inj := cfg.Faults; inj != nil {
		inj.Bind()
		n.faults = inj
		tl := inj.Timeline()
		apply := func(i int32) { n.applyFault(tl[i]) }
		for i, ev := range tl {
			n.eng.At(ev.At, apply, int32(i))
		}
	}
	// Start receivers (periodic feedback, initial credit adverts).
	n.fc.Start()
	return n, nil
}

// egressSlots is the number of queue slots of each egress port on a node of
// the given radix: the bank's physical queues when it gates them, a VOQ per
// input port under SchedVOQ, and one mixed arrival-order queue otherwise.
func (n *Network) egressSlots(radix int) int {
	switch {
	case n.fq > 0:
		return n.fq
	case n.cfg.Scheduling == SchedVOQ:
		return radix
	}
	return 1
}

// bankEnv is the Network as its bank's flowcontrol.Env: the engine's clock
// and timers, and the feedback path.
type bankEnv Network

func (e *bankEnv) Now() units.Time { return e.eng.Now() }

func (e *bankEnv) After(d units.Time, fn func(int32), ch int32) { e.eng.After(d, fn, ch) }

func (e *bankEnv) Emit(ch int, m flowcontrol.Message) { (*Network)(e).emit(&e.ports[ch], m) }

// fbSlot carries one in-flight feedback message from emit, which takes it off
// the Network's free list or appends one when all are in flight, to deliver,
// which puts it back.
type fbSlot struct {
	m    flowcontrol.Message
	ch   int32 // the emitting receiver's channel
	next int32 // the next idle slot while this one is idle
}

// emit schedules delivery of one feedback message from the receiver at
// ingress port down to its paired sender.
func (n *Network) emit(down *port, m flowcontrol.Message) {
	now := n.eng.Now()
	n.cfg.Trace.feedback(now, down.owner.id, down.local)
	if reg := n.metrics; reg != nil {
		reg.OnFeedback(down.cb, now, m.Kind, m.Stage)
	}
	delay := units.TransmissionTime(flowcontrol.MessageSize, down.capacity) +
		down.link.Delay + n.cfg.ProcDelay
	if down.adminDown {
		// The link is administratively down: the frame is emitted into a
		// dead channel and lost. (The wire/trace accounting above stands —
		// the receiver did spend the emission.)
		n.feedbackFault(down, faults.FeedbackDrop, now)
		return
	}
	if inj := n.faults; inj != nil {
		drop, extra := inj.FeedbackVerdict(down.link.ID, down.owner.id, m.Kind, now)
		if drop {
			n.feedbackFault(down, faults.FeedbackDrop, now)
			return
		}
		if extra > 0 {
			delay += extra
			n.feedbackFault(down, faults.FeedbackDelay, now)
		}
	}
	i := n.fbFree
	if i < 0 {
		i = int32(len(n.fbSlots))
		n.fbSlots = append(n.fbSlots, fbSlot{})
	} else {
		n.fbFree = n.fbSlots[i].next
	}
	n.fbSlots[i] = fbSlot{m: m, ch: int32(down.cb)}
	n.eng.After(delay, n.deliverFn, i)
}

// feedbackFault records a fault of the given kind on the feedback channel of
// the receiver at down.
func (n *Network) feedbackFault(down *port, kind faults.EventKind, at units.Time) {
	n.recordFault(metrics.FaultEvent{Kind: kind, At: at, Link: down.link.ID}, down.cb, down.owner.id)
}

// deliver hands feedback slot i's message to the paired sender and frees the
// slot.
func (n *Network) deliver(i int32) {
	s := &n.fbSlots[i]
	m, down := s.m, &n.ports[s.ch]
	s.next, n.fbFree = n.fbFree, i
	up := down.peer
	n.fc.OnFeedback(up.cb, m)
	if obs := n.fbObs; obs != nil {
		obs(up.cb, m)
	}
	// A rate or credit change may also unblock the host refill path
	// indirectly; kick handles the egress side, and refill is woken by its
	// own timer.
	n.kick(up)
}

// SetFeedbackObserver installs fn to observe every feedback message at the
// instant it is delivered to its sender — after fault-injected loss (dropped
// messages are never observed, matching the sender's view of the world) and
// after any delay. fn receives the sender's channel (topology.ChannelBases
// numbering: its port toward the receiver). Used by in-data-plane deadlock
// detection (DCFIT); at most one observer, nil uninstalls.
func (n *Network) SetFeedbackObserver(fn func(ch int, m flowcontrol.Message)) {
	n.fbObs = fn
}

// Engine exposes the event engine (for custom experiment events).
func (n *Network) Engine() *eventsim.Engine { return n.eng }

// Topology returns the simulated topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Now reports the current simulation time.
func (n *Network) Now() units.Time { return n.eng.Now() }

// Run advances the simulation to the given time.
func (n *Network) Run(until units.Time) {
	n.mustBeOpen()
	n.eng.Run(until)
}

// Drops reports the number of packets dropped; in a correctly configured
// lossless fabric this must be zero.
func (n *Network) Drops() int64 { return n.drops }

// Flows returns all flows ever added.
func (n *Network) Flows() []*Flow { return n.flows }

// AddFlow installs f and starts it at time at. The flow's Path must start at
// its source host and end with the hop delivering to Dst, and must not change
// afterwards: in-flight packets index it.
func (n *Network) AddFlow(f *Flow, at units.Time) error {
	n.mustBeOpen()
	if len(f.Path) == 0 {
		return fmt.Errorf("netsim: flow %d has no path", f.ID)
	}
	first := f.Path[0]
	if first.Node != f.Src {
		return fmt.Errorf("netsim: flow %d path starts at node %d, not src %d",
			f.ID, first.Node, f.Src)
	}
	last := f.Path[len(f.Path)-1]
	if last.Link.Other(last.Node) != f.Dst {
		return fmt.Errorf("netsim: flow %d path ends before dst %d", f.ID, f.Dst)
	}
	if n.nodes[f.Src].kind != topology.Host || n.nodes[f.Dst].kind != topology.Host {
		return fmt.Errorf("netsim: flow %d endpoints must be hosts", f.ID)
	}
	if len(f.Path)-1 > math.MaxInt16 {
		return fmt.Errorf("netsim: flow %d path has %d hops; a packet's hop index holds at most %d",
			f.ID, len(f.Path), math.MaxInt16+1)
	}
	n.flows = append(n.flows, f)
	n.eng.At(at, n.startFn, int32(len(n.flows)-1))
	return nil
}

// start begins flow n.flows[i] at its source.
func (n *Network) start(i int32) {
	f := n.flows[i]
	f.Started = n.eng.Now()
	src := &n.nodes[f.Src]
	src.addFlow(f)
	n.refill(src)
}

// SenderRate reports the currently permitted rate of the egress flow
// controller at node/port.
func (n *Network) SenderRate(node topology.NodeID, portIdx int) units.Rate {
	return n.fc.Rate(n.nodes[node].ports[portIdx].cb)
}
