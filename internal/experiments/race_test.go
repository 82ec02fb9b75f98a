//go:build race

package experiments

// raceEnabled reports whether the race detector is active; it drops
// sync.Pool items at random, so a pooled object may be rebuilt and alloc
// counts only hold without it.
const raceEnabled = true
