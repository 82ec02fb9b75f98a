// Package units defines the physical quantities used throughout the
// simulator: simulation time, data sizes and data rates. Keeping them as
// distinct types catches unit mix-ups at compile time and gives every
// experiment a single, consistent arithmetic.
package units

import (
	"fmt"
	"math"
	"time"
)

// Time is a point on the simulation clock, in nanoseconds since the start of
// the run. It is deliberately distinct from time.Duration so wall-clock and
// simulated time cannot be confused.
type Time int64

// Common simulation-time constants.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Never is a sentinel meaning "no scheduled time".
const Never Time = math.MaxInt64

// Duration converts a simulated interval to a time.Duration for display.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t in milliseconds as a float.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return t.Duration().String()
}

// Size is an amount of data in bytes.
type Size int64

// Common data-size constants.
const (
	Byte Size = 1
	KB   Size = 1000 * Byte // decimal kilobyte, as used in the paper
	MB   Size = 1000 * KB
)

// Bits reports the size in bits.
func (s Size) Bits() int64 { return int64(s) * 8 }

func (s Size) String() string {
	switch {
	case s >= MB && s%MB == 0:
		return fmt.Sprintf("%dMB", s/MB)
	case s >= KB && s%KB == 0:
		return fmt.Sprintf("%dKB", s/KB)
	default:
		return fmt.Sprintf("%dB", int64(s))
	}
}

// Rate is a data rate in bits per second. Zero means fully paused.
type Rate float64

// Common rate constants.
const (
	Kbps Rate = 1e3
	Mbps Rate = 1e6
	Gbps Rate = 1e9
)

func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.4gGbps", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.4gMbps", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.4gKbps", float64(r)/float64(Kbps))
	default:
		return fmt.Sprintf("%.4gbps", float64(r))
	}
}

// TransmissionTime reports how long transmitting s at rate r takes, rounded
// up to the next nanosecond. A zero or negative rate yields Never: the data
// cannot be transmitted.
func TransmissionTime(s Size, r Rate) Time {
	if r <= 0 {
		return Never
	}
	ns := float64(s.Bits()) / float64(r) * 1e9
	t := Time(math.Ceil(ns))
	if t < 0 {
		return Never
	}
	return t
}

// BytesIn reports how many whole bytes rate r delivers in interval d.
func BytesIn(r Rate, d Time) Size {
	if r <= 0 || d <= 0 {
		return 0
	}
	return Size(float64(r) * d.Seconds() / 8)
}

// RateOf reports the average rate that delivers s bytes in interval d.
func RateOf(s Size, d Time) Rate {
	if d <= 0 {
		return 0
	}
	return Rate(float64(s.Bits()) / d.Seconds())
}
