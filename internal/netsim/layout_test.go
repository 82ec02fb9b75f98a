package netsim

import (
	"testing"
	"unsafe"
)

// TestPortLayout pins the cache-line split port's comment promises: every
// field an arrival, a transmission completion or a kick touches ends inside
// the leading 128 bytes, the receiving-side fields (and the egress packet
// count) inside the first 64, the transmitter's and its retry timer's in the
// second, and a port is exactly three lines (192 B), so ports in the arena
// never share or straddle a line. A field added in the wrong place fails here instead of
// silently pushing the hot ones out or growing the port to a fourth line.
func TestPortLayout(t *testing.T) {
	var p port
	end := func(off, size uintptr) uintptr { return off + size }
	line0 := map[string]uintptr{
		"owner":      end(unsafe.Offsetof(p.owner), unsafe.Sizeof(p.owner)),
		"local":      end(unsafe.Offsetof(p.local), unsafe.Sizeof(p.local)),
		"cb":         end(unsafe.Offsetof(p.cb), unsafe.Sizeof(p.cb)),
		"buffer":     end(unsafe.Offsetof(p.buffer), unsafe.Sizeof(p.buffer)),
		"prop":       end(unsafe.Offsetof(p.prop), unsafe.Sizeof(p.prop)),
		"queuedPkts": end(unsafe.Offsetof(p.queuedPkts), unsafe.Sizeof(p.queuedPkts)),
	}
	for name, e := range line0 {
		if e > 64 {
			t.Errorf("port.%s ends at byte %d, outside the first cache line", name, e)
		}
	}
	hot := map[string]uintptr{
		"busy":      end(unsafe.Offsetof(p.busy), unsafe.Sizeof(p.busy)),
		"adminDown": end(unsafe.Offsetof(p.adminDown), unsafe.Sizeof(p.adminDown)),
		"failed":    end(unsafe.Offsetof(p.failed), unsafe.Sizeof(p.failed)),
		"sched":     end(unsafe.Offsetof(p.sched), unsafe.Sizeof(p.sched)),
		"txPkt":     end(unsafe.Offsetof(p.txPkt), unsafe.Sizeof(p.txPkt)),
		"txDur":     end(unsafe.Offsetof(p.txDur), unsafe.Sizeof(p.txDur)),
		"peer":      end(unsafe.Offsetof(p.peer), unsafe.Sizeof(p.peer)),
		"delay":     end(unsafe.Offsetof(p.delay), unsafe.Sizeof(p.delay)),
		"capacity":  end(unsafe.Offsetof(p.capacity), unsafe.Sizeof(p.capacity)),
		"kickAt":    end(unsafe.Offsetof(p.kickAt), unsafe.Sizeof(p.kickAt)),
		"kickEv":    end(unsafe.Offsetof(p.kickEv), unsafe.Sizeof(p.kickEv)),
	}
	for name, e := range hot {
		if e <= 64 || e > 128 {
			t.Errorf("port.%s ends at byte %d, outside the transmitter's cache line (64, 128]", name, e)
		}
	}
	if size := unsafe.Sizeof(p); size != 192 {
		t.Errorf("port is %d bytes; want 192 (three cache lines)", size)
	}
}

// TestPacketLayout pins the packet at 32 bytes: the route stays on the flow
// (Flow.Path, indexed by the hop), the size, sequence and index fields are as
// narrow as their bounds allow, and the free list reuses the queue link. Live
// packets make up most of a large fabric's heap, so a field that grows the
// packet fails here.
func TestPacketLayout(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size != 32 {
		t.Errorf("Packet is %d bytes; want 32", size)
	}
}
