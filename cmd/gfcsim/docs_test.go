package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/experiments"
	"github.com/gfcsim/gfc/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's output blocks from this build")

// experimentsDoc is the document whose measured results TestExperimentsDoc
// re-derives.
const experimentsDoc = "../../EXPERIMENTS.md"

// docBlock is one fenced block of EXPERIMENTS.md that a marker comment on the
// line before its fence claims: "<!-- gfcsim ARGS -->" for the stdout of a
// command, "<!-- file NAME -->" for a file the commands may name.
type docBlock struct {
	args []string // the command line after "gfcsim"; nil for a file
	file string   // the file's name; "" for a command
	line int      // 1-based line of the marker
	// body is lines[start:end] of the document, each line newline-terminated.
	start, end int
	body       string
}

// parseDoc finds every marked block in the document's lines.
func parseDoc(lines []string) ([]docBlock, error) {
	var blocks []docBlock
	for i := 0; i < len(lines); i++ {
		inner, ok := strings.CutPrefix(lines[i], "<!-- ")
		if ok {
			inner, ok = strings.CutSuffix(inner, " -->")
		}
		if !ok {
			continue
		}
		fields := strings.Fields(inner)
		b := docBlock{line: i + 1}
		switch {
		case len(fields) > 0 && fields[0] == "gfcsim":
			b.args = fields[1:]
		case len(fields) == 2 && fields[0] == "file":
			b.file = fields[1]
		default:
			continue
		}
		if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "```") {
			return nil, fmt.Errorf("line %d: %q is not followed by a fenced block", b.line, lines[i])
		}
		b.start = i + 2
		for b.end = b.start; b.end < len(lines) && lines[b.end] != "```"; b.end++ {
		}
		if b.end == len(lines) {
			return nil, fmt.Errorf("line %d: unterminated block", b.line)
		}
		for _, l := range lines[b.start:b.end] {
			b.body += l + "\n"
		}
		blocks = append(blocks, b)
		i = b.end
	}
	return blocks, nil
}

// cliFlag reports whether f is one of gfcsim's own flags rather than one the
// test binary adds.
func cliFlag(f *flag.Flag) bool {
	return !strings.HasPrefix(f.Name, "test.") && f.Name != "update"
}

// resetFlags puts every gfcsim flag back to its default.
func resetFlags() {
	flag.VisitAll(func(f *flag.Flag) {
		if cliFlag(f) {
			f.Value.Set(f.DefValue)
		}
	})
}

// runCLI runs gfcsim with args as main does — the CLI's own flags from their
// defaults, validateFlags, options, the selected driver, governed — and
// returns its stdout.
func runCLI(args []string) (string, error) {
	resetFlags()
	fs := flag.NewFlagSet("gfcsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	flag.VisitAll(func(f *flag.Flag) {
		if cliFlag(f) {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if fs.NArg() > 0 {
		return "", fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	d, err := validateFlags(set)
	if err != nil {
		return "", err
	}
	o, err := options(context.Background())
	if err != nil {
		return "", err
	}
	o.Stderr = io.Discard
	var out bytes.Buffer
	err = governed(d.Run(&out, o))
	return out.String(), err
}

// expOf returns the experiment a command line runs, "" for none.
func expOf(args []string) string {
	if i := slices.Index(args, "-exp"); i >= 0 && i+1 < len(args) {
		return args[i+1]
	}
	return ""
}

// isSweep reports whether the command would run a sweep: the drivers that
// read -checkpoint. Under -short and -race they are skipped.
func isSweep(args []string) bool {
	d, err := experiments.Lookup(expOf(args))
	return err == nil && slices.Contains(d.Flags, "checkpoint")
}

// TestExperimentsDoc re-runs every command whose output EXPERIMENTS.md shows
// and fails on any byte of drift, so a measured number in the document is
// one the current build prints. Each file block (a user-authored scenario
// spec) must parse and build, and a command naming it runs it from a
// temporary copy. -update rewrites the output blocks instead; sweeps are
// skipped under -short and -race.
func TestExperimentsDoc(t *testing.T) {
	data, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	blocks, err := parseDoc(lines)
	if err != nil {
		t.Fatalf("EXPERIMENTS.md: %v", err)
	}
	t.Cleanup(resetFlags)

	dir := t.TempDir()
	files := map[string]string{}
	shown := map[string]bool{}
	for _, b := range blocks {
		if b.file != "" {
			spec, err := scenario.Parse([]byte(b.body))
			if err == nil {
				_, err = scenario.Build(*spec, nil)
			}
			if err != nil {
				t.Errorf("EXPERIMENTS.md:%d: %s does not build: %v", b.line, b.file, err)
			}
			path := filepath.Join(dir, b.file)
			if err := os.WriteFile(path, []byte(b.body), 0o644); err != nil {
				t.Fatal(err)
			}
			files[b.file] = path
			continue
		}
		shown[expOf(b.args)] = true
	}
	for _, name := range experiments.Names() {
		if !shown[name] {
			t.Errorf("EXPERIMENTS.md shows no output of gfcsim -exp %s", name)
		}
	}

	rewrote := false
	for i := len(blocks) - 1; i >= 0; i-- { // bottom-up, so -update keeps line numbers valid
		b := blocks[i]
		if b.file != "" {
			continue
		}
		cmd := "gfcsim " + strings.Join(b.args, " ")
		if (testing.Short() || raceEnabled) && isSweep(b.args) {
			t.Logf("EXPERIMENTS.md:%d: %s: sweep skipped under -short or -race", b.line, cmd)
			continue
		}
		args := slices.Clone(b.args)
		for j, a := range args {
			if path, ok := files[a]; ok {
				args[j] = path
			}
		}
		got, err := runCLI(args)
		if err != nil {
			t.Errorf("EXPERIMENTS.md:%d: %s: %v", b.line, cmd, err)
			continue
		}
		if got == b.body {
			continue
		}
		if *update {
			lines = slices.Replace(lines, b.start, b.end, strings.Split(strings.TrimSuffix(got, "\n"), "\n")...)
			rewrote = true
			continue
		}
		t.Errorf("EXPERIMENTS.md:%d: %s prints something else; first difference:\n%s\n(rerun with -update after an intended change)",
			b.line, cmd, firstDifference(b.body, got, b.start+1))
	}
	if rewrote {
		if err := os.WriteFile(experimentsDoc, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("rewrote EXPERIMENTS.md")
	}
}

// firstDifference renders the first line where want and got part, numbered
// from first, the document line of want's first line.
func firstDifference(want, got string, first int) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; ; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl || i >= len(w) || i >= len(g) {
			return fmt.Sprintf("  line %d: doc  %q\n  line %d: runs %q", first+i, wl, first+i, gl)
		}
	}
}

// docsBudget caps DESIGN.md + EXPERIMENTS.md + CHANGES.md: what the repository
// is and what it measures, not the history of each change, which git keeps.
const (
	docsBudget   = 134_000
	changesEntry = 1_500
)

// TestDocsBudget holds the three narrative documents to docsBudget bytes
// together, and CHANGES.md to one paragraph of at most changesEntry bytes per
// entry: one line, starting "- ".
func TestDocsBudget(t *testing.T) {
	total := 0
	for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md", "CHANGES.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		total += len(data)
		if name != "CHANGES.md" {
			continue
		}
		for i, entry := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			if !strings.HasPrefix(entry, "- ") {
				t.Errorf("CHANGES.md:%d is not an entry: each entry is one paragraph, one line starting \"- \"", i+1)
			}
			if len(entry) > changesEntry {
				t.Errorf("CHANGES.md:%d: entry of %d bytes, over %d", i+1, len(entry), changesEntry)
			}
		}
	}
	if total > docsBudget {
		t.Errorf("DESIGN.md + EXPERIMENTS.md + CHANGES.md = %d bytes, over the %d budget", total, docsBudget)
	}
}
