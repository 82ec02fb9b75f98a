//go:build race

package main

// raceEnabled reports whether the race detector is active; its ~10×
// slowdown makes TestExperimentsDoc's sweep blocks cost minutes, so they are
// skipped, as under -short.
const raceEnabled = true
