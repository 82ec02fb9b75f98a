package runner

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointStore throws arbitrary bytes at OpenStore: whatever a crash,
// a disk hiccup or a hostile editor left in the checkpoint file, reopening
// must never panic. Below the v2 header line it must never error either: it
// salvages only CRC-clean entries and leaves the file appendable — a
// subsequent Record followed by a reopen sees both the salvaged prefix and
// the new entry. Anything else either opens (an empty file, a torn header)
// or is refused with ErrCheckpointFormat and left byte-identical.
//
// The seed corpus covers the interesting shapes: a clean v2 file, a torn
// tail, a mid-file bit flip, a headerless v1 file, plain garbage, an entry
// carrying the "prov" object of a cell that once retried, and a failed
// cell's "err" entry. The fuzzer mutates from there (truncations, splices,
// flips).
func FuzzCheckpointStore(f *testing.F) {
	mk := func(build func(st *Store)) []byte {
		path := filepath.Join(f.TempDir(), "seed.ckpt")
		st, err := OpenStore(path, "k")
		if err != nil {
			f.Fatal(err)
		}
		build(st)
		st.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	clean := mk(func(st *Store) {
		for i := 0; i < 4; i++ {
			st.Record(i, int64(i), map[string]int{"n": i}, nil, nil)
		}
	})
	f.Add(clean)
	f.Add(clean[:len(clean)-7]) // torn tail
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x20 // mid-file bit flip
	f.Add(flipped)
	f.Add([]byte(`{"job":0,"key":"k","seed":1,"value":{"n":0}}` + "\n")) // headerless v1
	f.Add([]byte("\x00\xff garbage\nmore garbage"))
	f.Add([]byte(`{"gfc_checkpoint":2,"crc":"ieee"}` + "\n"))
	f.Add([]byte{})
	f.Add(provCheckpoint())
	f.Add(errCheckpoint())

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(path, "k")
		if err != nil {
			if bytes.HasPrefix(data, []byte(storeHeader)) || !errors.Is(err, ErrCheckpointFormat) {
				t.Fatalf("OpenStore errored on corrupt input: %v", err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
				t.Fatalf("refused file was modified: %q, was %q", got, data)
			}
			return
		}
		salvaged := st.Done()
		// The store must stay usable: record a fresh cell on top of
		// whatever was salvaged.
		if err := st.Record(1<<20, 99, map[string]int{"n": -1}, nil, nil); err != nil {
			t.Fatalf("Record after salvage: %v", err)
		}
		st.Close()
		st2, err := OpenStore(path, "k")
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer st2.Close()
		if _, ok := st2.Lookup(1 << 20); !ok {
			t.Fatal("appended entry lost on reopen")
		}
		if got := st2.Done(); got < salvaged {
			t.Fatalf("reopen salvaged %d < first open's %d: salvage not monotone", got, salvaged)
		}
	})
}
