package netsim

import (
	"fmt"

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
	nodes []*node
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

	// Struct-of-arrays hot-path state. Per-channel arrays are indexed by
	// the dense channel index port.cb — a channel is a port — which by
	// construction equals the metrics registry's ChannelIndex for the same
	// (node, port): one index addresses a channel everywhere. Dense
	// arrays keep each iteration's working set contiguous and make the
	// per-port construction cost a handful of bulk allocations instead of
	// ~10 small slices per port.
	ports       []port            // arena; node.ports are runs of it
	occupancy   []units.Size      // ingress buffer occupancy
	progress    []ingressProgress // ingress forwarding-progress records
	queuedBytes []units.Size      // egress backlog
	senders     []flowcontrol.Sender
	receivers   []flowcontrol.Receiver
	rrVoq       []int32    // round-robin cursor over VOQs / input ports
	inq         []pktQueue // ingress FIFOs (SchedInputQueued/SchedBlocking)
	inqOut      []int16    // egress port of each ingress FIFO's head, -1 when empty (pushInq/popInq)
	// limiters holds every channel's rate limiter by value when the wired
	// scheme is rate-gated (flowcontrol.RateGated: GFC-buffer, GFC-time,
	// conceptual GFC), nil otherwise. The senders point at their slots;
	// trySend and completeTx read and write them in place.
	limiters []flowcontrol.RateLimiter
	// Ready masks, one word per egress channel; see scheduler.go. inReady bit
	// i: the owner's input i has its FIFO head bound for this egress
	// (pushInq/popInq). slotReady bit s: queue slot s of this egress is
	// non-empty (enqueue/dequeue).
	inReady   []uint64
	slotReady []uint64
	// voqs and fedBytes have port-dependent strides; see port.voqBase and
	// port.fedBase.
	voqs     []pktQueue
	fedBytes []units.Size

	// Per-flow queue state (Config.FlowQueues > 0, BFC). All nil/zero
	// otherwise, so the disabled cost is one int compare on the hot path.
	// fq is cfg.FlowQueues; qAssign maps flow ID → current assignment per
	// channel; slotFlows counts assigned flows per physical queue with the
	// same (voqBase + slot) indexing as voqs; queueSenders /
	// queueReceivers are the wired controllers' per-queue interfaces.
	fq             int
	qAssign        []map[int]flowAssign
	slotFlows      []int32
	queueSenders   []flowcontrol.QueueSender
	queueReceivers []flowcontrol.QueueReceiver

	// fbObs, when non-nil, observes every feedback message at its delivery
	// instant (after loss/delay faults have taken effect) — the in-data-
	// plane vantage point DCFIT-style deadlock detection needs. from is
	// the emitting (downstream) node, to the paused/credited (upstream)
	// node.
	fbObs func(from, to topology.NodeID, m flowcontrol.Message)
	// fbSlots carries the feedback messages in flight, one slot each, from
	// Emit to the delivery event naming the slot; fbFree lists the idle
	// slots (-1: none), so messages wait out their own delays in any order
	// and the steady state allocates nothing.
	fbSlots []fbSlot
	fbFree  int32
	// Per-node state, indexed by node id: inBusy bit i says the node's
	// ingress FIFO i is non-empty (pushInq/popInq); the rest is the
	// SchedBlocking forwarding core's.
	inBusy     []uint64
	fwdCursor  []int32
	fwdBlocked []*port // egress whose full TX ring stalls forwarding
	forwarding []bool  // re-entrancy guard

	// Packet free list, per network: deterministic (unlike a sync.Pool,
	// which drains on GC) and allocated in arena chunks so a run costs a
	// few chunk allocations rather than one per live packet.
	freePkts []*Packet
	pktArena []Packet
}

// New builds a simulation of topo under cfg. Every live channel direction
// gets an independent flow controller.
func New(topo *topology.Topology, cfg Config) (*Network, error) {
	cfg.FillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, topo: topo, eng: eventsim.New(), fbFree: -1}
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
		h := n.nodes[id]
		h.refillAt = units.Never
		n.refill(h)
	}
	n.deliverFn = n.deliver
	n.startFn = n.start
	nn := topo.NumNodes()

	// Pass 1: size the dense arrays. The channel index layout must match
	// metrics.Registry.Bind exactly: channels in (node, port) order.
	chans, totalVoqs, totalFed := 0, 0, 0
	for id := 0; id < nn; id++ {
		ats := topo.Ports(topology.NodeID(id))
		if len(ats) > maxRadix && cfg.Scheduling != SchedFIFO {
			return nil, fmt.Errorf("netsim: node %s has %d ports; %s scheduling supports at most %d per node",
				topo.Node(topology.NodeID(id)).Name, len(ats), cfg.Scheduling, maxRadix)
		}
		chans += len(ats)
		slots := 1
		if cfg.Scheduling == SchedVOQ {
			slots = len(ats)
		}
		if cfg.FlowQueues > 0 {
			slots = cfg.FlowQueues
		}
		totalVoqs += len(ats) * slots
		totalFed += len(ats) * len(ats)
	}
	n.ports = make([]port, chans)
	n.occupancy = make([]units.Size, chans)
	n.progress = make([]ingressProgress, chans)
	n.queuedBytes = make([]units.Size, chans)
	n.senders = make([]flowcontrol.Sender, chans)
	n.receivers = make([]flowcontrol.Receiver, chans)
	n.rrVoq = make([]int32, chans)
	n.inq = make([]pktQueue, chans)
	n.inqOut = make([]int16, chans)
	for ch := range n.inqOut {
		n.inqOut[ch] = -1
	}
	n.inReady = make([]uint64, chans)
	n.slotReady = make([]uint64, chans)
	n.inBusy = make([]uint64, nn)
	n.voqs = make([]pktQueue, totalVoqs)
	n.fedBytes = make([]units.Size, totalFed)
	n.fwdCursor = make([]int32, nn)
	n.fwdBlocked = make([]*port, nn)
	n.forwarding = make([]bool, nn)
	if cfg.FlowQueues > 0 {
		n.fq = cfg.FlowQueues
		n.qAssign = make([]map[int]flowAssign, chans)
		n.slotFlows = make([]int32, totalVoqs)
		n.queueSenders = make([]flowcontrol.QueueSender, chans)
		n.queueReceivers = make([]flowcontrol.QueueReceiver, chans)
	}

	// Pass 2: build nodes and ports, assigning each port its bases.
	n.nodes = make([]*node, nn)
	cb, vb, fb := 0, 0, 0
	for id := range n.nodes {
		tn := topo.Node(topology.NodeID(id))
		nd := &node{id: tn.ID, kind: tn.Kind, cb: cb, refillAt: units.Never}
		ats := topo.Ports(tn.ID)
		nd.ports = n.ports[cb : cb+len(ats) : cb+len(ats)]
		slots := 1
		if cfg.Scheduling == SchedVOQ {
			slots = len(ats)
		}
		if cfg.FlowQueues > 0 {
			slots = cfg.FlowQueues
		}
		for i, at := range ats {
			n.ports[cb] = port{
				owner: nd, local: i, link: at.Link, failed: at.Link.Failed,
				delay: at.Link.Delay, capacity: at.Link.Capacity,
				kickAt: units.Never,
				sched:  cfg.Scheduling,
				cb:     cb, voqBase: vb, slots: slots, fedBase: fb,
				buffer: cfg.ingressBuffer(tn.Kind),
			}
			cb++
			vb += slots
			fb += len(ats)
		}
		n.nodes[id] = nd
	}
	// Resolve each port's peer now that every node has its ports.
	for i := range n.ports {
		p := &n.ports[i]
		far := p.link.Other(p.owner.id)
		p.peer = &n.nodes[far].ports[p.link.PortOn(far)]
	}
	// Wire controllers: for channel u→v, the Sender lives on u's port
	// and the Receiver on v's port.
	for _, nd := range n.nodes {
		for i := range nd.ports {
			p := &nd.ports[i]
			if p.failed {
				continue
			}
			up := p.peer // upstream egress port
			upName := topo.Node(up.owner.id).Name
			params := cfg.ChannelParams(p.link, nd.kind)
			env := &fcEnv{n: n, down: p, up: up}
			ctl, err := cfg.FlowControl(params, env)
			if err != nil {
				return nil, fmt.Errorf("netsim: channel %s->%s: %w",
					upName, topo.Node(nd.id).Name, err)
			}
			n.receivers[p.cb] = ctl.Receiver
			n.senders[up.cb] = ctl.Sender
			if n.fq > 0 {
				qs, ok := ctl.Sender.(flowcontrol.QueueSender)
				if !ok {
					return nil, fmt.Errorf("netsim: FlowQueues=%d but the %s->%s sender is not queue-aware",
						n.fq, upName, topo.Node(nd.id).Name)
				}
				if qs.Queues() != n.fq {
					return nil, fmt.Errorf("netsim: FlowQueues=%d but the wired scheme has %d queues",
						n.fq, qs.Queues())
				}
				qr, ok := ctl.Receiver.(flowcontrol.QueueReceiver)
				if !ok {
					return nil, fmt.Errorf("netsim: FlowQueues=%d but the %s->%s receiver is not queue-aware",
						n.fq, upName, topo.Node(nd.id).Name)
				}
				n.queueSenders[up.cb] = qs
				n.queueReceivers[p.cb] = qr
			}
		}
	}
	n.bindLimiters()
	// Bind the metrics registry before receivers start: initial credit
	// adverts already flow through Emit and must be counted. Ceilings and
	// stage tables come from the wired senders via the optional
	// flowcontrol.Bounded / flowcontrol.Staged interfaces.
	if reg := cfg.Metrics; reg != nil {
		n.metrics = reg
		BindRegistry(reg, topo, cfg, func(node topology.NodeID, port int) (bm units.Size, table *core.StageTable) {
			s := n.senders[n.nodes[node].ports[port].peer.cb]
			if b, ok := s.(flowcontrol.Bounded); ok {
				bm = b.Ceiling()
			}
			if st, ok := s.(flowcontrol.Staged); ok {
				table = st.StageTable()
			}
			return bm, table
		})
		for i := range n.ports {
			p := &n.ports[i]
			if got := reg.ChannelIndex(p.owner.id, p.local); got != p.cb {
				panic(fmt.Sprintf("netsim: channel index desync: node %d port %d: netsim %d, metrics %d",
					p.owner.id, p.local, p.cb, got))
			}
		}
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
	for _, r := range n.receivers {
		if r != nil {
			r.Start()
		}
	}
	return n, nil
}

// bindLimiters moves every wired sender's rate limiter into n.limiters when
// the scheme is rate-gated on every channel; otherwise n.limiters stays nil
// and kick and completeTx call the Senders.
func (n *Network) bindLimiters() {
	for _, s := range n.senders {
		if _, ok := s.(flowcontrol.RateGated); s != nil && !ok {
			return
		}
	}
	n.limiters = make([]flowcontrol.RateLimiter, len(n.senders))
	for ch, s := range n.senders {
		if s != nil {
			s.(flowcontrol.RateGated).BindLimiter(&n.limiters[ch])
		}
	}
}

// fcEnv is the flowcontrol.Env for the receiver at downstream port `down`;
// Emit carries messages back to the paired sender at upstream port `up`.
type fcEnv struct {
	n    *Network
	down *port // receiver side (ingress)
	up   *port // sender side (upstream egress)
}

// fbSlot carries one in-flight feedback message from Emit, which takes it off
// the Network's free list or appends one when all are in flight, to deliver,
// which puts it back.
type fbSlot struct {
	m    flowcontrol.Message
	env  *fcEnv
	next int32 // the next idle slot while this one is idle
}

func (e *fcEnv) Clock() flowcontrol.Clock { return e.n.eng }
func (e *fcEnv) After(d units.Time, fn func(int32), arg int32) {
	e.n.eng.After(d, fn, arg)
}

// Emit schedules delivery of one feedback message.
func (e *fcEnv) Emit(m flowcontrol.Message) {
	n := e.n
	wire := m.Wire()
	n.cfg.Trace.feedback(n.eng.Now(), e.down.owner.id, e.up.owner.id, wire)
	if reg := n.metrics; reg != nil {
		reg.OnFeedback(e.down.cb, n.eng.Now(), m.Kind, m.Stage, wire)
	}
	delay := units.TransmissionTime(wire, e.down.capacity) +
		e.down.link.Delay + n.cfg.ProcDelay
	now := n.eng.Now()
	if e.down.adminDown {
		// The link is administratively down: the frame is emitted into a
		// dead channel and lost. (The wire/trace accounting above stands —
		// the receiver did spend the emission.)
		e.fault(faults.FeedbackDrop, now)
		return
	}
	if inj := n.faults; inj != nil {
		drop, extra := inj.FeedbackVerdict(
			e.down.link.ID, e.down.owner.id, m.Kind, now)
		if drop {
			e.fault(faults.FeedbackDrop, now)
			return
		}
		if extra > 0 {
			delay += extra
			e.fault(faults.FeedbackDelay, now)
		}
	}
	i := n.fbFree
	if i < 0 {
		i = int32(len(n.fbSlots))
		n.fbSlots = append(n.fbSlots, fbSlot{})
	} else {
		n.fbFree = n.fbSlots[i].next
	}
	n.fbSlots[i] = fbSlot{m: m, env: e}
	n.eng.After(delay, n.deliverFn, i)
}

// fault records a fault of the given kind on this feedback channel.
func (e *fcEnv) fault(kind faults.EventKind, at units.Time) {
	e.n.recordFault(metrics.FaultEvent{Kind: kind, At: at, Link: e.down.link.ID}, e.down.cb, e.down.owner.id)
}

// deliver hands feedback slot i's message to the paired sender and frees the
// slot.
func (n *Network) deliver(i int32) {
	s := &n.fbSlots[i]
	m, e := s.m, s.env
	s.env, s.next, n.fbFree = nil, n.fbFree, i
	n.senders[e.up.cb].OnFeedback(m)
	if obs := n.fbObs; obs != nil {
		obs(e.down.owner.id, e.up.owner.id, m)
	}
	// A rate or credit change may also unblock the host refill path
	// indirectly; kick handles the egress side, and refill is woken by its
	// own timer.
	n.kick(e.up)
}

// SetFeedbackObserver installs fn to observe every feedback message at the
// instant it is delivered to its sender — after fault-injected loss (dropped
// messages are never observed, matching the sender's view of the world) and
// after any delay. Used by in-data-plane deadlock detection (DCFIT); at most
// one observer, nil uninstalls.
func (n *Network) SetFeedbackObserver(fn func(from, to topology.NodeID, m flowcontrol.Message)) {
	n.fbObs = fn
}

// Engine exposes the event engine (for custom experiment events).
func (n *Network) Engine() *eventsim.Engine { return n.eng }

// Topology returns the simulated topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Now reports the current simulation time.
func (n *Network) Now() units.Time { return n.eng.Now() }

// Run advances the simulation to the given time.
func (n *Network) Run(until units.Time) { n.eng.Run(until) }

// Drops reports the number of packets dropped; in a correctly configured
// lossless fabric this must be zero.
func (n *Network) Drops() int64 { return n.drops }

// Flows returns all flows ever added.
func (n *Network) Flows() []*Flow { return n.flows }

// AddFlow installs f and starts it at time at. The flow's Path must start at
// its source host and end with the hop delivering to Dst.
func (n *Network) AddFlow(f *Flow, at units.Time) error {
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
	n.flows = append(n.flows, f)
	n.eng.At(at, n.startFn, int32(len(n.flows)-1))
	return nil
}

// start begins flow n.flows[i] at its source.
func (n *Network) start(i int32) {
	f := n.flows[i]
	f.Started = n.eng.Now()
	src := n.nodes[f.Src]
	src.addFlow(f)
	n.refill(src)
}

// SenderRate reports the currently permitted rate of the egress flow
// controller at node/port.
func (n *Network) SenderRate(node topology.NodeID, portIdx int) units.Rate {
	s := n.senders[n.nodes[node].ports[portIdx].cb]
	if s == nil {
		return 0
	}
	return s.Rate()
}
