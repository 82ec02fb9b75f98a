package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cell is a deliberately float-heavy result type: the resume contract
// depends on JSON float64 round-trips being exact.
type cell struct {
	Mean float64 `json:"mean"`
	P99  float64 `json:"p99"`
	N    int     `json:"n"`
}

func cellJobs(t *testing.T, n int, mustRun func(i int) bool) []Job[cell] {
	t.Helper()
	jobs := make([]Job[cell], n)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (cell, error) {
			if mustRun != nil && !mustRun(i) {
				t.Errorf("job %d recomputed despite a checkpoint entry", i)
			}
			if i == 3 {
				return cell{}, fmt.Errorf("cell %d diverged", i)
			}
			return cell{Mean: math.Sqrt(float64(i)) / 3, P99: float64(i) * 1.1e-9, N: i}, nil
		}
	}
	return jobs
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	const n = 12
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	// Uninterrupted reference run, no checkpoint.
	ref := RunWith(context.Background(), cellJobs(t, n, nil), Options[cell]{Workers: 1})

	// First pass: record only the first half, simulating an interrupt by
	// running a truncated job list.
	st, err := OpenStore(path, "spec-v1")
	if err != nil {
		t.Fatal(err)
	}
	seed := func(i int) int64 { return int64(i)*1e9 + 7 }
	RunWith(context.Background(), cellJobs(t, n/2, nil), Options[cell]{Workers: 2, Checkpoint: st, Seed: seed})
	if st.Done() != n/2-1 {
		t.Fatalf("recorded %d cells, want %d (the failed cell 3 left out)", st.Done(), n/2-1)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: recorded cells must be replayed, not recomputed, and the
	// aggregate must match the uninterrupted run bit for bit. The failed
	// cell was not recorded, so it is recomputed like the unrun half.
	st2, err := OpenStore(path, "spec-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	res := RunWith(context.Background(), cellJobs(t, n, func(i int) bool { return i >= n/2 || i == 3 }),
		Options[cell]{Workers: 3, Checkpoint: st2, Seed: seed})
	for i := range res {
		if res[i].Value != ref[i].Value {
			t.Fatalf("cell %d: resumed %+v != reference %+v", i, res[i].Value, res[i].Value)
		}
	}
	if res[3].Err == nil || res[3].Err.Error() != ref[3].Err.Error() {
		t.Fatalf("recomputed failure %v != reference %v", res[3].Err, ref[3].Err)
	}
	if st2.Done() != n-1 {
		t.Fatalf("store holds %d cells after resume, want %d", st2.Done(), n-1)
	}
	// Recorded seeds survive the round trip.
	if e, ok := st2.Lookup(4); !ok || e.Seed != seed(4) {
		t.Fatalf("entry 4 seed = %+v", e)
	}
}

func TestCheckpointKeyMismatchReruns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	st, err := OpenStore(path, "spec-v1")
	if err != nil {
		t.Fatal(err)
	}
	RunWith(context.Background(), cellJobs(t, 4, nil), Options[cell]{Workers: 1, Checkpoint: st})
	st.Close()

	// A different sweep key must not replay: stale entries are ignored.
	st2, err := OpenStore(path, "spec-v2")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Done() != 0 {
		t.Fatalf("key-mismatched store replays %d cells", st2.Done())
	}
	ran := make([]bool, 4)
	RunWith(context.Background(), cellJobs(t, 4, func(i int) bool { ran[i] = true; return true }),
		Options[cell]{Workers: 1, Checkpoint: st2})
	for i, r := range ran {
		if !r {
			t.Fatalf("job %d not re-run under the new key", i)
		}
	}
}

func TestCheckpointTornLineTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	st, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Record(i, int64(i), cell{N: i}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	// Simulate a kill mid-write: a partial, unterminated JSON line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"job":3,"key":"k","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Done() != 3 {
		t.Fatalf("recovered %d cells, want 3 (torn line dropped)", st2.Done())
	}
	if _, ok := st2.Lookup(3); ok {
		t.Fatal("torn entry replayed")
	}
	// Appending after recovery must yield a parseable file: the torn tail
	// was truncated away.
	if err := st2.Record(3, 3, cell{N: 3}, nil, nil); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.Done() != 4 {
		t.Fatalf("post-recovery store holds %d cells, want 4", st3.Done())
	}
}

func TestCheckpointSkipsCancelledCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	st, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make([]Job[int], 6)
	for i := range jobs {
		i := i
		jobs[i] = func(ctx context.Context) (int, error) {
			if i == 2 {
				cancel()
				return 0, ctx.Err() // cut short by the cancellation
			}
			return i, nil
		}
	}
	res := RunWith(ctx, jobs, Options[int]{Workers: 1, Checkpoint: st})
	// Jobs 0-1 completed and were recorded; job 2 and the queued jobs were
	// cancellation casualties and must NOT be in the checkpoint, so a
	// resume re-runs them.
	if st.Done() != 2 {
		t.Fatalf("recorded %d cells, want 2 (cancelled cells excluded)", st.Done())
	}
	for i := 2; i < 6; i++ {
		if _, ok := st.Lookup(i); ok {
			t.Fatalf("cancelled job %d leaked into the checkpoint", i)
		}
		if !errors.Is(res[i].Err, context.Canceled) {
			t.Fatalf("job %d err = %v", i, res[i].Err)
		}
	}
}

// TestCheckpointRecordsSuccessesOnly pins that only a success is durable: a
// transient failure, an invariant violation and a panic are each left out of
// the checkpoint, and a resume runs them again — the one way any failure is
// recovered, and the way a deterministic one is shown again with its error.
func TestCheckpointRecordsSuccessesOnly(t *testing.T) {
	st, err := OpenStore(filepath.Join(t.TempDir(), "sweep.ckpt"), "k")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	attempts := make([]int, 4)
	jobs := make([]Job[int], 4)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) {
			attempts[i]++
			switch {
			case i == 1 && attempts[i] == 1: // one stall, cleared by the resume
				return 0, fmt.Errorf("host stall: %w", context.DeadlineExceeded)
			case i == 2:
				return 0, errors.New("invariant violated")
			case i == 3:
				panic("cbd cycle wedged")
			}
			return i, nil
		}
	}
	check := func(res []Result[int], recorded []bool) {
		t.Helper()
		if err := res[2].Err; err == nil || !strings.HasPrefix(err.Error(), "job 2: invariant violated") {
			t.Errorf("job 2 err = %v", err)
		}
		var pe *PanicError
		if !errors.As(res[3].Err, &pe) || pe.Value != "cbd cycle wedged" {
			t.Errorf("job 3 err = %v, want its panic", res[3].Err)
		}
		for i, want := range recorded {
			if _, ok := st.Lookup(i); ok != want {
				t.Errorf("job %d recorded = %v, want %v", i, ok, want)
			}
		}
	}
	res := RunWith(context.Background(), jobs, Options[int]{Workers: 1, Checkpoint: st})
	if res[0].Err != nil || res[1].Err == nil {
		t.Fatalf("unexpected outcomes: %+v", res)
	}
	check(res, []bool{true, false, false, false})
	res = RunWith(context.Background(), jobs, Options[int]{Workers: 1, Checkpoint: st})
	if res[1].Err != nil || res[1].Value != 1 {
		t.Fatalf("resumed job 1 = %+v, want the recomputed value", res[1])
	}
	check(res, []bool{true, true, false, false})
	if want := []int{1, 2, 2, 2}; fmt.Sprint(attempts) != fmt.Sprint(want) {
		t.Errorf("runs per job %v, want %v: every failure recomputes", attempts, want)
	}
}

// provCheckpoint is a checkpoint file byte for byte as the store wrote it
// while the fault matrix still retried in-process: the v2 header, then one
// CRC-enveloped entry for a cell that succeeded on its second attempt,
// carrying the "prov" object that recorded its retry.
func provCheckpoint() []byte {
	e := `{"job":0,"key":"k","seed":7,"value":{"mean":0.5,"p99":1e-9,"n":42},` +
		`"prov":{"attempts":2,"retries":[{"attempt":1,"err":"job 0: wall budget","backoff_ns":1000000000,"class":"transient"}]}}`
	return []byte(fmt.Sprintf("%s{\"crc\":%d,\"e\":%s}\n", storeHeader, crc32.ChecksumIEEE([]byte(e)), e))
}

// TestCheckpointWithProvenanceReplays pins that an entry carrying a "prov"
// object still opens clean and replays its value: dropping the field from
// Entry must not make older checkpoints salvage or recompute.
func TestCheckpointWithProvenanceReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.ckpt")
	if err := os.WriteFile(path, provCheckpoint(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if sv := st.Salvage(); sv.Dropped != 0 {
		t.Fatalf("salvage dropped %d line(s): %s", sv.Dropped, sv.Reason)
	}
	res := RunWith(context.Background(), cellJobs(t, 1, func(int) bool { return false }),
		Options[cell]{Workers: 1, Checkpoint: st})
	if want := (cell{Mean: 0.5, P99: 1e-9, N: 42}); res[0].Err != nil || res[0].Value != want {
		t.Fatalf("replayed %+v (err %v), want %+v", res[0].Value, res[0].Err, want)
	}
}

// errCheckpoint is a checkpoint file byte for byte as the store wrote it
// while it still recorded failed cells: the v2 header, then one
// CRC-enveloped entry for a cell that failed, with an "err" and no value.
func errCheckpoint() []byte {
	e := `{"job":0,"key":"k","seed":7,"err":"job 0: analytic invariant violated"}`
	return []byte(fmt.Sprintf("%s{\"crc\":%d,\"e\":%s}\n", storeHeader, crc32.ChecksumIEEE([]byte(e)), e))
}

// TestCheckpointErrEntryRecomputes pins that a failed cell recorded by an
// older build is not replayed: the file opens clean, the entry is not
// counted, and a resume recomputes the cell.
func TestCheckpointErrEntryRecomputes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.ckpt")
	if err := os.WriteFile(path, errCheckpoint(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if sv := st.Salvage(); sv.Dropped != 0 {
		t.Fatalf("salvage dropped %d line(s): %s", sv.Dropped, sv.Reason)
	}
	if st.Done() != 0 {
		t.Fatalf("store counts %d cells, want the failed entry left out", st.Done())
	}
	ran := false
	res := RunWith(context.Background(), cellJobs(t, 1, func(int) bool { ran = true; return true }),
		Options[cell]{Workers: 1, Checkpoint: st})
	if !ran || res[0].Err != nil || res[0].Value != (cell{}) {
		t.Fatalf("cell 0 not recomputed: ran %v, %+v", ran, res[0])
	}
	if st.Done() != 1 {
		t.Fatalf("recomputed cell not recorded: %d cells", st.Done())
	}
}

func TestCheckpointDeterministicAcrossWorkers(t *testing.T) {
	// Same checkpoint state + same jobs must give the same result slice at
	// any worker count, including the replayed-vs-computed partition.
	const n = 16
	dir := t.TempDir()
	mk := func(name string) *Store {
		st, err := OpenStore(filepath.Join(dir, name), "k")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 3 {
			if err := st.Record(i, 0, cell{Mean: float64(i) / 7, N: i}, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	base := mk("a.ckpt")
	ref := RunWith(context.Background(), cellJobs(t, n, nil), Options[cell]{Workers: 1, Checkpoint: base})
	base.Close()
	for _, workers := range []int{2, 5, 0} {
		st := mk(fmt.Sprintf("w%d.ckpt", workers))
		got := RunWith(context.Background(), cellJobs(t, n, nil), Options[cell]{Workers: workers, Checkpoint: st})
		st.Close()
		for i := range got {
			if got[i].Value != ref[i].Value {
				t.Fatalf("workers=%d cell %d: %+v != %+v", workers, i, got[i].Value, ref[i].Value)
			}
			if (got[i].Err == nil) != (ref[i].Err == nil) {
				t.Fatalf("workers=%d cell %d error mismatch: %v vs %v", workers, i, got[i].Err, ref[i].Err)
			}
		}
	}
}

// readLines splits a checkpoint file into its non-empty lines.
func readLines(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, l := range bytes.Split(data, []byte{'\n'}) {
		if len(l) > 0 {
			lines = append(lines, l)
		}
	}
	return lines
}

func TestCheckpointV2HeaderAndEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	st, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Record(0, 7, cell{Mean: 0.25, N: 1}, nil, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	lines := readLines(t, path)
	if len(lines) != 2 {
		t.Fatalf("file has %d lines, want header + 1 entry", len(lines))
	}
	var hdr struct {
		Version int `json:"gfc_checkpoint"`
	}
	if err := json.Unmarshal(lines[0], &hdr); err != nil || hdr.Version != 2 {
		t.Fatalf("header %s parses to %+v (err %v)", lines[0], hdr, err)
	}
	var env envelope
	if err := json.Unmarshal(lines[1], &env); err != nil {
		t.Fatal(err)
	}
	if crc32.ChecksumIEEE(env.E) != env.CRC {
		t.Fatal("recorded entry fails its own CRC")
	}
	st2, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if sv := st2.Salvage(); sv.Dropped != 0 {
		t.Fatalf("clean file salvaged: %+v", sv)
	}
	if e, ok := st2.Lookup(0); !ok || e.Seed != 7 {
		t.Fatalf("entry 0 = %+v, %v", e, ok)
	}
}

func TestCheckpointMidFileBitFlipSalvagesPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	st, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := st.Record(i, int64(i), cell{Mean: float64(i) / 3, N: i}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Flip one byte inside entry 2's value — still valid JSON shape-wise,
	// but the CRC must catch it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	target := lines[3] // header + entries 0,1 before it
	i := bytes.Index(target, []byte(`"n":2`))
	if i < 0 {
		t.Fatalf("entry 2 layout changed: %s", target)
	}
	target[i+4] = '9'
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Done() != 2 {
		t.Fatalf("salvaged %d cells, want the 2-entry valid prefix", st2.Done())
	}
	sv := st2.Salvage()
	if sv.Dropped != 4 {
		t.Fatalf("Dropped = %d, want 4 (corrupt line + 3 after it)", sv.Dropped)
	}
	if !strings.Contains(sv.Reason, "CRC mismatch") {
		t.Fatalf("Reason = %q", sv.Reason)
	}
	// Appending after salvage yields a clean file again.
	for i := 2; i < 6; i++ {
		if err := st2.Record(i, int64(i), cell{Mean: float64(i) / 3, N: i}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	st2.Close()
	st3, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.Done() != 6 || st3.Salvage().Dropped != 0 {
		t.Fatalf("post-repair store: %d cells, salvage %+v", st3.Done(), st3.Salvage())
	}
}

func TestCheckpointGarbageLineSalvagesPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	st, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Record(i, int64(i), cell{N: i}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\x00\x01 not json at all\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st2, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Done() != 3 {
		t.Fatalf("salvaged %d cells, want 3", st2.Done())
	}
	sv := st2.Salvage()
	if sv.Dropped != 1 || !strings.Contains(sv.Reason, "unparseable envelope") {
		t.Fatalf("salvage = %+v", sv)
	}
}

// TestCheckpointForeignFileRefusedUntouched pins the one thing the store will
// not repair: a non-empty file that does not start with the v2 header — a
// headerless v1 checkpoint, a future format, a damaged header, the wrong
// file — fails the open with ErrCheckpointFormat and keeps every byte.
func TestCheckpointForeignFileRefusedUntouched(t *testing.T) {
	for name, content := range map[string]string{
		"v1 checkpoint":    `{"job":0,"key":"k","seed":10,"value":{"mean":0.5,"p99":0,"n":0}}` + "\n",
		"future version":   `{"gfc_checkpoint":3,"crc":"ieee"}` + "\n" + `{"crc":1,"e":{}}` + "\n",
		"damaged header":   `{"gfc_checkpoint":2,"crc":"iede"}` + "\n",
		"text file":        "Table 1: deadlock cases\nPFC 12\n",
		"unterminated":     "notes to self",
		"header then junk": `{"gfc_checkpoint":2,"crc":"ieee"} trailing` + "\n",
	} {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(path, "k")
		if !errors.Is(err, ErrCheckpointFormat) {
			if st != nil {
				st.Close()
			}
			t.Fatalf("%s: OpenStore = %v, want ErrCheckpointFormat", name, err)
		}
		if got, _ := os.ReadFile(path); string(got) != content {
			t.Fatalf("%s: refused file was modified:\n%q\nwas\n%q", name, got, content)
		}
	}
}

// TestCheckpointTornHeaderStartsFresh pins the one headerless file that is
// ours: a kill during the very first write leaves a prefix of the header
// line, which is a torn tail like any other.
func TestCheckpointTornHeaderStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, []byte(storeHeader[:11]), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Record(0, 0, cell{N: 0}, nil, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if lines := readLines(t, path); len(lines) != 2 || string(lines[0])+"\n" != storeHeader {
		t.Fatalf("file after a torn-header recovery: %q", lines)
	}
}

func TestCheckpointSalvageEverythingStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	// A v2 header followed immediately by garbage: the valid prefix is just
	// the header, and the store must keep working.
	if err := os.WriteFile(path, []byte("{\"gfc_checkpoint\":2,\"crc\":\"ieee\"}\ngarbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	if st.Done() != 0 || st.Salvage().Dropped != 1 {
		t.Fatalf("store = %d cells, salvage %+v", st.Done(), st.Salvage())
	}
	if err := st.Record(0, 0, cell{N: 0}, nil, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := OpenStore(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Done() != 1 || st2.Salvage().Dropped != 0 {
		t.Fatalf("recovered store = %d cells, salvage %+v", st2.Done(), st2.Salvage())
	}
}
