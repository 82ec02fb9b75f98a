package main

import (
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/scenario"
)

// TestUnknownScenarioListsNames pins the -scenario error UX: a typo'd name
// must come back with the full registry so the user can pick without a
// second -list invocation.
func TestUnknownScenarioListsNames(t *testing.T) {
	old := *scenarioName
	defer func() { *scenarioName = old }()
	*scenarioName = "definitely-not-registered"
	err := runScenario()
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %q: %v", name, err)
		}
	}
}

func TestSplitComma(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"4,8", []string{"4", "8"}},
		{"4", []string{"4"}},
		{"", nil},
		{"4,8,16", []string{"4", "8", "16"}},
		{"4,", []string{"4"}},
	}
	for _, c := range cases {
		got := splitComma(c.in)
		if len(got) != len(c.want) {
			t.Errorf("splitComma(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitComma(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// TestScalesRejectsGarbage pins that -scales never silently drops an entry:
// a token that is not an integer (or a list naming no arity at all) is a
// usage error naming the bad token, before any sweep runs.
func TestScalesRejectsGarbage(t *testing.T) {
	for _, ok := range []struct {
		in   string
		want []int
	}{
		{"4,8", []int{4, 8}},
		{"4, 8,", []int{4, 8}},
		{"16", []int{16}},
	} {
		got, err := parseScales(ok.in)
		if err != nil || len(got) != len(ok.want) {
			t.Errorf("parseScales(%q) = %v, %v; want %v", ok.in, got, err, ok.want)
			continue
		}
		for i := range got {
			if got[i] != ok.want[i] {
				t.Errorf("parseScales(%q) = %v, want %v", ok.in, got, ok.want)
			}
		}
	}
	for in, token := range map[string]string{
		"4,x8": `"x8"`,
		"abc":  `"abc"`,
		"4,,8": `""`,
		"4.5":  `"4.5"`,
		"":     "no fat-tree arity",
	} {
		old := *scales
		*scales = in
		err := runSweep("table1")
		*scales = old
		if err == nil || exitCode(err) != 2 || !strings.Contains(err.Error(), token) {
			t.Errorf("-scales %q: err = %v (exit %d), want a usage error naming %s",
				in, err, exitCode(err), token)
		}
	}
}
