package netsim

// pktQueue is an intrusive packet FIFO: the links run through Packet.next, so
// a queue is three words and push, pop and front touch only the queue and the
// packets themselves — there is no backing array to allocate, compact or miss
// on. A packet sits in at most one queue at a time (a host or egress queue,
// the wire toward a port, or an ingress FIFO), which is what lets one link
// field serve them all.
//
// The zero value is an empty queue, ready to use.
type pktQueue struct {
	head, tail *Packet
	n          int
}

// len reports the number of queued packets.
func (q *pktQueue) len() int { return q.n }

// empty reports whether the queue holds no packets.
func (q *pktQueue) empty() bool { return q.head == nil }

// front returns the head packet without removing it, nil when empty.
func (q *pktQueue) front() *Packet { return q.head }

// push appends pkt at the tail. pkt must not be in any queue.
func (q *pktQueue) push(pkt *Packet) {
	if q.tail == nil {
		q.head = pkt
	} else {
		q.tail.next = pkt
	}
	q.tail = pkt
	q.n++
}

// pop removes and returns the head packet. The queue must not be empty.
func (q *pktQueue) pop() *Packet {
	pkt := q.head
	q.head = pkt.next
	if q.head == nil {
		q.tail = nil
	}
	pkt.next = nil
	q.n--
	return pkt
}
