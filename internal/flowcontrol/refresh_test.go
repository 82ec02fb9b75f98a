package flowcontrol

import (
	"testing"

	"github.com/gfcsim/gfc/internal/units"
)

// newRefreshGFC builds a buffer-based GFC controller with periodic stage
// refresh, wired through the fake env (delivery controllable via forward).
func newRefreshGFC(t *testing.T, env *fakeEnv, refresh units.Time) channel {
	t.Helper()
	c, err := wire(NewGFCBuffer(GFCBufferConfig{
		B1: 750 * units.KB, Refresh: refresh,
	}), testParams(), env)
	if err != nil {
		t.Fatal(err)
	}
	env.forward = c.Sender
	return c
}

// TestGFCBufferRefreshRepairsLoss is the loss-robustness regression: stage
// feedback is edge-triggered, so without refresh a single lost message
// leaves the sender on a stale rate forever; with Refresh the receiver
// re-advertises and the sender recovers within one period.
func TestGFCBufferRefreshRepairsLoss(t *testing.T) {
	const refresh = 50 * units.Microsecond
	env := newFakeEnv()
	c := newRefreshGFC(t, env, refresh)
	c.Receiver.Start()
	line := c.Sender.Rate()

	// Lose the crossing message: the queue enters stage 1 but the sender
	// never hears it.
	env.forward = nil
	c.Receiver.OnArrival(1500, 760*units.KB)
	env.eng.Run(env.eng.Now() + units.Microsecond)
	if got := c.Sender.Rate(); got != line {
		t.Fatalf("sender rate %v before any delivered feedback, want line rate %v", got, line)
	}

	// Restore delivery: the next refresh re-advertises stage 1.
	env.forward = c.Sender
	env.eng.Run(env.eng.Now() + 2*refresh)
	if got := c.Sender.Rate(); got >= line {
		t.Fatalf("sender rate %v after refresh, want below line rate %v", got, line)
	}
}

// TestGFCBufferNoRefreshStaysStale pins the default (Refresh == 0)
// behaviour the golden traces depend on: a lost stage message is never
// repaired, and no periodic traffic appears.
func TestGFCBufferNoRefreshStaysStale(t *testing.T) {
	env := newFakeEnv()
	c := newBufferGFC(t, env)
	c.Receiver.Start()
	line := c.Sender.Rate()

	env.forward = nil
	c.Receiver.OnArrival(1500, 760*units.KB)
	sent := len(env.sent)
	env.forward = c.Sender
	env.eng.Run(env.eng.Now() + 10*units.Millisecond)
	if len(env.sent) != sent {
		t.Fatalf("edge-triggered receiver emitted %d extra messages", len(env.sent)-sent)
	}
	if got := c.Sender.Rate(); got != line {
		t.Fatalf("sender rate %v, want stale line rate %v", got, line)
	}
}

// TestGFCBufferRefreshQuietChannel: a channel that never crossed a
// threshold has advertised nothing upstream could have lost, so refresh
// must not generate traffic on it (clean-run overhead is unchanged).
func TestGFCBufferRefreshQuietChannel(t *testing.T) {
	const refresh = 50 * units.Microsecond
	env := newFakeEnv()
	c := newRefreshGFC(t, env, refresh)
	c.Receiver.Start()
	c.Receiver.OnArrival(1500, 100*units.KB) // below B1, no crossing
	env.eng.Run(20 * refresh)
	if len(env.sent) != 0 {
		t.Fatalf("quiet channel emitted %d refresh messages", len(env.sent))
	}
}

// TestGFCBufferRefreshTracksCurrentStage: refresh advertises the stage of
// the *current* queue, not the stage at loss time.
func TestGFCBufferRefreshTracksCurrentStage(t *testing.T) {
	const refresh = 50 * units.Microsecond
	env := newFakeEnv()
	c := newRefreshGFC(t, env, refresh)
	c.Receiver.Start()

	c.Receiver.OnArrival(1500, 760*units.KB) // stage 1, delivered
	env.eng.Run(env.eng.Now() + units.Microsecond)

	// Queue drains below B1 but the stage-0 message is lost.
	env.forward = nil
	c.Receiver.OnDeparture(1500, 100*units.KB)
	env.forward = c.Sender
	env.eng.Run(env.eng.Now() + 2*refresh)
	if got, want := c.Sender.Rate(), testParams().Capacity; got != want {
		t.Fatalf("sender rate %v after refresh of drained queue, want line rate %v", got, want)
	}
}
