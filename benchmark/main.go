// Command benchmark is the repository's benchmark: five workloads that run
// the simulator as its users do, the end-to-end metrics they would see, and
// — in a traced run — the per-layer metrics that explain them. It measures
// every layer from outside, by timing calls into exported functions.
//
//	go run ./benchmark -seed 1                  all five workloads
//	go run ./benchmark -seed 1 -trace 1         plus the per-layer ladder and trace.json
//	go run ./benchmark -workload ring_packet    one workload
//	go run ./benchmark -compare a.json b.json   two reports, metric by metric
//
// BENCHMARK.json at the repository root declares the same names; README.md
// beside this file says why each workload and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Report is the benchmark's JSON result.
type Report struct {
	Schema    string            `json:"schema"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Workers   int               `json:"workers"`
	Host      Host              `json:"host"`
	Workloads []*WorkloadReport `json:"workloads"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]LayerValue `json:"layers,omitempty"`
}

// Host states where the numbers were taken.
type Host struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	CPUModel  string `json:"cpu_model,omitempty"`
}

func hostInfo() Host {
	h := Host{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// buildDir is where the benchmark keeps everything it writes unless -out
// says otherwise: checkpoints of the sweep workloads and trace.json. It is
// inside the checkout and named in .gitignore.
const buildDir = ".bench_build"

func main() {
	seed := flag.Int64("seed", 1, "workload seed: the only workload input")
	name := flag.String("workload", "", "run one workload (default: all five, one after another)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace.json")
	seconds := flag.Float64("seconds", 0, "keep repeating each workload until this much time is measured (never fewer than 3 repetitions)")
	out := flag.String("out", "", "write the JSON report to this file; trace.json goes beside it")
	compare := flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: benchmark -compare a.json b.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}

	run := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		run = []*workloadDef{w}
	}

	rep := &Report{
		Schema: "gfc-benchmark/1", Seed: *seed, Seconds: *seconds, Traced: *trace != 0,
		Workers: Workers, Host: hostInfo(),
	}
	env := &env{seed: *seed, size: fullSizes, dir: filepath.Join(buildDir, "tmp")}
	if err := os.MkdirAll(env.dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	var tr *Tracer
	if rep.Traced {
		tr = newTracer()
	}
	measureFor := *seconds
	if rep.Traced {
		// A traced run reports per-layer metrics only; its untraced
		// repetitions exist to price the tracing overhead.
		measureFor = 0
	}
	for _, w := range run {
		env.tr = tr
		wr, err := measure(w, env, measureFor)
		if err != nil {
			fatalf("%v", err)
		}
		rep.Workloads = append(rep.Workloads, wr)
		printWorkload(os.Stdout, wr)
	}
	if rep.Traced {
		layers, err := measureLayers(env)
		if err != nil {
			fatalf("%v", err)
		}
		// One process measures one traced repetition per workload; the
		// driver's flat list carries the first (its only one).
		layers["trace.overhead_share"] = LayerValue{Value: rep.Workloads[0].Traced.OverheadShare}
		layers["trace.unattributed_share"] = LayerValue{Value: rep.Workloads[0].Traced.UnattributedShare}
		rep.Layers = layers
		printLayers(os.Stdout, layers)
		tracePath := filepath.Join(buildDir, "trace.json")
		if *out != "" {
			tracePath = filepath.Join(filepath.Dir(*out), "trace.json")
		}
		if err := writeJSON(tracePath, tr.spans); err != nil {
			fatalf("%v", err)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fatalf("%v", err)
		}
	}

	// The last line of standard output is the machine-readable result.
	line, failed := resultLine(rep)
	fmt.Println(line)
	if failed {
		os.Exit(1)
	}
}

// resultLine renders the run as one JSON object: correct, attempted, failed
// and the metrics — every end-to-end metric when untraced, every per-layer
// metric when traced. With several workloads in one process the metric
// names carry the workload as a suffix.
func resultLine(rep *Report) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, w := range rep.Workloads {
		res.Attempted += w.Attempted
		res.Failed += w.Failed
		if rep.Traced {
			continue
		}
		for _, d := range endToEnd {
			key := d.Name
			if len(rep.Workloads) > 1 {
				key += "." + w.Name
			}
			res.Metrics[key] = value{w.Metrics[d.Name].Median, d.Unit}
		}
	}
	for _, d := range perLayer {
		if rep.Traced {
			res.Metrics[d.Name] = value{rep.Layers[d.Name].Value, d.Unit}
		}
	}
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	return string(b), !res.Correct
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
