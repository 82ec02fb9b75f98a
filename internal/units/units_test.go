package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConstants(t *testing.T) {
	if Second != 1e9*Nanosecond {
		t.Fatalf("Second = %d ns", Second)
	}
	if Millisecond != 1e6 || Microsecond != 1e3 {
		t.Fatalf("unexpected constants: ms=%d us=%d", Millisecond, Microsecond)
	}
}

func TestTimeConversions(t *testing.T) {
	tt := 1500 * Microsecond
	if got := tt.Millis(); got != 1.5 {
		t.Errorf("Millis() = %v, want 1.5", got)
	}
	if got := tt.Seconds(); got != 0.0015 {
		t.Errorf("Seconds() = %v, want 0.0015", got)
	}
}

func TestTimeString(t *testing.T) {
	if got := Never.String(); got != "never" {
		t.Errorf("Never.String() = %q", got)
	}
	if got := (2 * Millisecond).String(); got != "2ms" {
		t.Errorf("(2ms).String() = %q", got)
	}
}

func TestSizeBits(t *testing.T) {
	if got := (1 * KB).Bits(); got != 8000 {
		t.Errorf("1KB.Bits() = %d, want 8000", got)
	}
	if got := (1024 * Byte).Bits(); got != 8192 {
		t.Errorf("1024B.Bits() = %d, want 8192", got)
	}
}

func TestSizeString(t *testing.T) {
	cases := []struct {
		s    Size
		want string
	}{
		{1500 * Byte, "1500B"},
		{100 * KB, "100KB"},
		{2 * MB, "2MB"},
		{1536 * Byte, "1536B"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.s), got, c.want)
		}
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		r    Rate
		want string
	}{
		{10 * Gbps, "10Gbps"},
		{5 * Mbps, "5Mbps"},
		{8 * Kbps, "8Kbps"},
		{100, "100bps"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.r), got, c.want)
		}
	}
}

func TestTransmissionTime(t *testing.T) {
	// 1500B at 10Gbps = 1.2 us.
	got := TransmissionTime(1500*Byte, 10*Gbps)
	if got != 1200*Nanosecond {
		t.Errorf("TransmissionTime(1500B,10G) = %v, want 1.2us", got)
	}
	// Zero rate: cannot transmit.
	if got := TransmissionTime(1*Byte, 0); got != Never {
		t.Errorf("TransmissionTime at rate 0 = %v, want Never", got)
	}
	if got := TransmissionTime(1*Byte, -5); got != Never {
		t.Errorf("TransmissionTime at negative rate = %v, want Never", got)
	}
}

func TestTransmissionTimeRoundsUp(t *testing.T) {
	// 1 byte at 3 bps: 8/3 s = 2.666..s -> must round up.
	got := TransmissionTime(1*Byte, 3)
	want := Time(math.Ceil(8.0 / 3.0 * 1e9))
	if got != want {
		t.Errorf("TransmissionTime = %v, want %v", got, want)
	}
}

func TestBytesIn(t *testing.T) {
	// 10Gbps for 1us = 10e9 * 1e-6 / 8 = 1250 bytes.
	if got := BytesIn(10*Gbps, Microsecond); got != 1250 {
		t.Errorf("BytesIn = %d, want 1250", got)
	}
	if got := BytesIn(10*Gbps, 0); got != 0 {
		t.Errorf("BytesIn(d=0) = %d, want 0", got)
	}
	if got := BytesIn(0, Second); got != 0 {
		t.Errorf("BytesIn(r=0) = %d, want 0", got)
	}
}

func TestRateOf(t *testing.T) {
	// 1250 bytes in 1us = 10Gbps.
	if got := RateOf(1250*Byte, Microsecond); got != 10*Gbps {
		t.Errorf("RateOf = %v, want 10Gbps", got)
	}
	if got := RateOf(100*Byte, 0); got != 0 {
		t.Errorf("RateOf(d=0) = %v, want 0", got)
	}
}

// Property: transmission time is monotone in size and antitone in rate.
func TestTransmissionTimeMonotone(t *testing.T) {
	f := func(sz uint16, extra uint16) bool {
		s := Size(sz)
		r := 1 * Gbps
		t1 := TransmissionTime(s, r)
		t2 := TransmissionTime(s+Size(extra), r)
		t3 := TransmissionTime(s, 2*r)
		return t2 >= t1 && (s == 0 || t3 <= t1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BytesIn and TransmissionTime are approximately inverse:
// transmitting for the computed time carries at least the size.
func TestTransmissionRoundTrip(t *testing.T) {
	f := func(sz uint16) bool {
		s := Size(sz) + 1
		r := 10 * Gbps
		d := TransmissionTime(s, r)
		got := BytesIn(r, d)
		// Rounding up time can deliver at most one extra byte + rounding.
		return got >= s-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
