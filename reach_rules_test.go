package gfc_test

import (
	"fmt"
	"reflect"
	"testing"
	"testing/fstest"
)

// TestReachRules feeds reachCheck four tiny in-memory modules, one per rule,
// and requires exactly the findings listed: each rule fires on what it is for,
// and everything else in the module — the exemptions — passes.
func TestReachRules(t *testing.T) {
	for _, c := range []struct {
		name       string
		lib, test  string // internal/lib/lib.go and its lib_test.go
		mainBody   string // body of cmd/x's main, which imports lib
		mainImport string
		want       []string
	}{
		{
			name: "rule 1: referenced, not namesake",
			lib: `package lib

import "errors"

type A struct{}
type B struct{}

func (A) Reset() {}
func (B) Reset() {} // a name-based walk keeps it: A.Reset is live

func New() (A, B) { return A{}, B{} }

// Live through interfaces: one the module declares and calls, one of the
// standard library, and the errors package's unexported Unwrap.
type Shape interface{ Area() int }
type Square struct{ side int }

func (s Square) Area() int      { return s.side * s.side }
func (s Square) String() string { return "square" }
func (s Square) Perimeter() int { return 4 * s.side } // no interface, no caller

func Total(shapes ...Shape) (n int) {
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

func Unit() Square { return Square{side: 1} }

type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped: " + w.err.Error() }
func (w wrapped) Unwrap() error { return w.err }

func Wrap(err error) error { return wrapped{err} }

var ErrBase = errors.New("base")

// Live because the runtime or a blank assignment runs them unnamed.
func init()       { registered = append(registered, fromInit()) }
func fromInit() int  { return 1 }
func fromBlank() int { return 2 }

var registered []int
var _ = fromBlank()

func helper() int    { return 1 } // only the test calls it
func deadChain() int { return helper2() }
func helper2() int   { return 2 } // referenced, but only from dead code
`,
			test: `package lib

import "testing"

func TestB(t *testing.T) {
	_, b := New()
	b.Reset()
	if helper() != 1 || Unit().Perimeter() != 4 {
		t.Fatal()
	}
}
`,
			mainImport: `"errors"`,
			mainBody: `a, _ := lib.New()
	a.Reset()
	println(lib.Total(lib.Unit()), errors.Is(lib.Wrap(lib.ErrBase), lib.ErrBase))`,
			want: []string{
				"rule 1: lib.B.Reset", "rule 1: lib.Square.Perimeter",
				"rule 1: lib.helper", "rule 1: lib.deadChain", "rule 1: lib.helper2",
			},
		},
		{
			name: "rule 2: written is also read",
			lib: `package lib

import (
	"encoding/json"
	"strconv"
)

type counters struct {
	hits  int
	bytes int      // only ever stored to
	log   []string // only ever appended to
	last  [2]int   // only ever stored into
	_     [8]byte  // padding is nobody's to read
}

type key struct{ a, b int } // read by the map's hash

type Report struct { // read by the encoder
	Name string ` + "`json:\"name\"`" + `
	Size int    ` + "`json:\"size\"`" + `
	Skip int    ` + "`json:\"-\"`" + `
}

// Result is what Run returns: the package's output.
type Result struct {
	Count  int // a test reads it
	Spare  int // nobody does
	hidden int // a test does, but it is not part of the output
	seen   map[key]int
}

func Run(n int) (*Result, []byte) {
	var c counters
	for i := 0; i < n; i++ {
		c.hits++
		c.bytes += 100
		c.log = append(c.log, "hit")
		c.last[i%2] = i
	}
	res := &Result{Count: c.hits, Spare: n, hidden: n, seen: map[key]int{}}
	res.seen[key{a: n, b: n}]++
	out, _ := json.Marshal(Report{Name: "run " + strconv.Itoa(n), Size: len(res.seen), Skip: n})
	return res, out
}
`,
			test: `package lib

import "testing"

func TestRun(t *testing.T) {
	if res, _ := Run(3); res.Count != 3 || res.hidden != 3 {
		t.Fatal(res)
	}
}
`,
			mainBody: `_, out := lib.Run(2)
	println(string(out))`,
			want: []string{
				"rule 2: lib.counters.bytes", "rule 2: lib.counters.log", "rule 2: lib.counters.last",
				"rule 2: lib.Report.Skip", "rule 2: lib.Result.Spare", "rule 2: lib.Result.hidden",
			},
		},
		{
			name: "rule 3: read is also set",
			lib: `package lib

import "encoding/json"

type Spec struct {
	Depth int ` + "`json:\"depth\"`" + ` // nothing sets it but the decoder
}

type Config struct {
	Size    int
	Verbose bool // only the test sets it
	Limit   int  // nothing sets it
}

func Parse(data []byte) (Config, error) {
	var s Spec
	err := json.Unmarshal(data, &s)
	return Config{Size: s.Depth}, err
}

func Run(cfg Config) int {
	n := cfg.Size
	if cfg.Verbose {
		n *= 2
	}
	if cfg.Limit > 0 && n > cfg.Limit {
		n = cfg.Limit
	}
	return n
}
`,
			test: `package lib

import "testing"

func TestVerbose(t *testing.T) {
	if Run(Config{Size: 2, Verbose: true}) != 4 {
		t.Fatal()
	}
}
`,
			mainBody: `cfg, _ := lib.Parse([]byte("{}"))
	println(lib.Run(cfg))`,
			want: []string{"rule 3: lib.Config.Verbose", "rule 3: lib.Config.Limit"},
		},
		{
			name: "rule 4: an option is not a constant in disguise",
			lib: `package lib

import "encoding/json"

type Poller struct {
	Interval int // only the constructor sets it
}

func NewPoller() *Poller { return &Poller{Interval: 5} }

type Limits struct {
	Window int // left out everywhere, filled in under a compound condition
	Burst  int // two callers, two constants
	Cap    int // left out once with no default fill: 64 or 0
}

func (l Limits) resolve() Limits {
	if l.Window <= 0 && l.Burst > 0 {
		l.Window = 10
	}
	return l
}

func Small() Limits { return Limits{Burst: 1, Cap: 64}.resolve() }
func Large() Limits { return Limits{Burst: 8}.resolve() }

type Budget struct {
	Max int // only the program sets it
}

type Spec struct {
	Seed int ` + "`json:\"seed\"`" + ` // the decoder fills it, or the default does
}

func Load(data []byte) (Spec, error) {
	var s Spec
	err := json.Unmarshal(data, &s)
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s, err
}

type ticker struct {
	Period int // a constant, but of an unexported type
}

func Run(p *Poller, l Limits, b Budget) int {
	t := ticker{Period: 3}
	return p.Interval + l.Window + l.Burst + l.Cap + b.Max + t.Period
}
`,
			test: `package lib

import "testing"

func TestRun(t *testing.T) {
	if Run(&Poller{Interval: 7}, Limits{Window: 1}, Budget{}) != 11 {
		t.Fatal()
	}
}
`,
			mainBody: `s, _ := lib.Load(nil)
	b := lib.Budget{Max: 100}
	println(lib.Run(lib.NewPoller(), lib.Small(), b), lib.Run(lib.NewPoller(), lib.Large(), b), s.Seed)`,
			want: []string{"rule 4: lib.Poller.Interval", "rule 4: lib.Limits.Window"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			main := fmt.Sprintf("package main\n\nimport (\n\t%s\n\t\"example.com/m/internal/lib\"\n)\n\nfunc main() {\n\t%s\n}\n",
				c.mainImport, c.mainBody)
			findings, err := reachCheck(fstest.MapFS{
				"cmd/x/main.go":            {Data: []byte(main)},
				"internal/lib/lib.go":      {Data: []byte(c.lib)},
				"internal/lib/lib_test.go": {Data: []byte(c.test)},
			}, "example.com/m")
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range findings {
				got = append(got, fmt.Sprintf("rule %d: %s", f.rule, f.id))
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("findings, in source order:\n got %q\nwant %q", got, c.want)
			}
		})
	}
}
