package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// This file is the checkpoint store: an append-only JSONL file recording
// each sweep cell that succeeded as (job index, sweep key, seed, value). One
// line per cell, flushed as cells complete, so a killed sweep loses at most
// the in-flight cells. A failed cell has no line, so a resume recomputes it.
//
// Format v2 opens the file with a versioned header line and wraps every
// entry in an envelope carrying the CRC32-IEEE of the entry's JSON, so a
// mid-file bit flip — not just a torn final line — is detected instead of
// silently poisoning a resume. On reopen the store salvages the longest
// valid prefix: scanning stops at the first corrupt line, everything after
// it is truncated away (those cells recompute, which is cheap and always
// correct), and the damage is reported via Salvage instead of crashing.
// Salvage only ever applies below a valid header: a file whose first line is
// anything else is not ours to repair, and OpenStore refuses it untouched
// with ErrCheckpointFormat.

// storeHeader is the exact first line of every checkpoint file: format
// version 2, the one this build reads and writes. The field name doubles as
// the magic.
const storeHeader = `{"gfc_checkpoint":2,"crc":"ieee"}` + "\n"

// ErrCheckpointFormat is returned (wrapped) by OpenStore for a non-empty
// file that does not start with this build's header line: a headerless v1
// checkpoint, a future format version, a header damaged on disk, or simply
// the wrong file. The file is left byte-identical — delete it or pick
// another path to start the sweep fresh.
var ErrCheckpointFormat = errors.New("not a v2 checkpoint file")

// envelope is one v2 entry line: the entry's JSON plus its CRC32-IEEE.
// The CRC covers the exact bytes of E as written, so any mutation — a bit
// flip inside the entry, a truncated tail, garbage splices — fails the
// check even when the result is still valid JSON.
type envelope struct {
	CRC uint32          `json:"crc"`
	E   json.RawMessage `json:"e"`
}

// Entry is one checkpoint line.
type Entry struct {
	// Job is the cell's index in the sweep's job order.
	Job int `json:"job"`
	// Key identifies the sweep configuration (a spec hash); entries with a
	// different key are ignored on load.
	Key string `json:"key"`
	// Seed is the cell's RNG seed, recorded for provenance.
	Seed int64 `json:"seed"`
	// Value is the cell's JSON-encoded result. Older builds also recorded
	// failed cells, as an entry with an "err" string and no value; such an
	// entry is not loaded, so a resume recomputes the cell. An entry may
	// also carry the "prov" object of a cell that once retried; decoding
	// ignores it, so the value still replays.
	Value json.RawMessage `json:"value,omitempty"`
}

// Salvage reports what OpenStore had to discard to recover a checkpoint:
// the number of corrupt or torn lines dropped and a description of the
// first corruption. The zero value means a clean open.
type Salvage struct {
	// Dropped counts discarded lines (each at most one cell, which the
	// resumed sweep recomputes).
	Dropped int `json:"dropped"`
	// Reason describes the first corruption encountered.
	Reason string `json:"reason,omitempty"`
}

// Store is a checkpoint file opened for resume-and-append. Record is safe
// for concurrent use by pool workers.
type Store struct {
	mu      sync.Mutex
	f       *os.File
	key     string
	done    map[int]Entry
	salvage Salvage
}

// OpenStore opens (creating if absent) the checkpoint at path for the sweep
// identified by key. Existing entries with a matching key become replayable
// via Lookup. Below a valid header, corruption never fails the open: a torn
// final line, a CRC mismatch or an unparseable line drops the damaged
// suffix, the store truncates to the salvaged prefix so appends stay
// parseable, and Salvage reports what was lost. A file that does not start
// with the v2 header fails with ErrCheckpointFormat and is not modified.
func OpenStore(path, key string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: reading checkpoint %s: %w", path, err)
	}
	header := []byte(storeHeader)
	// A kill during the very first write can leave a torn header; anything
	// else that is not the header line is somebody else's file.
	if !bytes.HasPrefix(data, header) && !bytes.HasPrefix(header, data) {
		f.Close()
		return nil, fmt.Errorf("runner: checkpoint %s: %w (first line is not %s)",
			path, ErrCheckpointFormat, bytes.TrimSpace(header))
	}
	s := &Store{f: f, key: key, done: make(map[int]Entry)}
	// Anything after the last newline is a torn write from a killed sweep.
	valid := bytes.LastIndexByte(data, '\n') + 1
	if valid != len(data) {
		s.noteDrop("torn final line (mid-write kill)")
	}
	valid = s.scan(data[:valid], len(header))
	if valid != len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: trimming corrupt checkpoint tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if valid == 0 {
		if _, err := f.Write(header); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// scan parses the entry lines of the whole-line region of the file (data,
// whose first off bytes are the header), fills done, and returns the byte
// length of the valid prefix to keep. It stops at the first corrupt line —
// the CRC makes "valid so far" meaningful — and counts the dropped suffix.
func (s *Store) scan(data []byte, off int) int {
	if len(data) == 0 {
		return 0
	}
	end := off
	line := 1
	for off < len(data) {
		line++
		nl := bytes.IndexByte(data[off:], '\n')
		raw := data[off : off+nl]
		next := off + nl + 1
		if len(raw) == 0 {
			off, end = next, next
			continue
		}
		var env envelope
		var e Entry
		switch {
		case json.Unmarshal(raw, &env) != nil || env.E == nil:
			s.noteDrop(fmt.Sprintf("line %d: unparseable envelope", line))
		case crc32.ChecksumIEEE(env.E) != env.CRC:
			s.noteDrop(fmt.Sprintf("line %d: CRC mismatch (recorded %08x)", line, env.CRC))
		case json.Unmarshal(env.E, &e) != nil || e.Job < 0:
			s.noteDrop(fmt.Sprintf("line %d: CRC-clean but undecodable entry", line))
		default:
			if e.Key == s.key && len(e.Value) > 0 {
				s.done[e.Job] = e
			}
			off, end = next, next
			continue
		}
		// First corruption: drop this line and everything after it — the
		// longest valid prefix is all that integrity can vouch for.
		s.salvage.Dropped += bytes.Count(data[next:], []byte{'\n'})
		return end
	}
	return end
}

// noteDrop counts one discarded line, keeping the first reason.
func (s *Store) noteDrop(reason string) {
	if s.salvage.Dropped == 0 {
		s.salvage.Reason = reason
	}
	s.salvage.Dropped++
}

// Salvage reports what the open discarded; Dropped == 0 means the
// checkpoint loaded clean.
func (s *Store) Salvage() Salvage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.salvage
}

// Lookup returns the recorded entry for a job, if any.
func (s *Store) Lookup(job int) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.done[job]
	return e, ok
}

// Done reports how many cells the store has recorded.
func (s *Store) Done() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.done)
}

// Record appends one succeeded cell's value. The line is written in a
// single Write call so a kill between cells never tears more than the final
// line. The error and provenance parameters are ignored: they are kept only
// so benchmark/ compiles unchanged, and ROADMAP 6(c) deletes them.
func (s *Store) Record(job int, seed int64, value any, _ error, _ *Provenance) error {
	v, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("runner: encoding checkpoint value for job %d: %w", job, err)
	}
	e := Entry{Job: job, Key: s.key, Seed: seed, Value: v}
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	line, err := json.Marshal(envelope{CRC: crc32.ChecksumIEEE(raw), E: raw})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(line); err != nil {
		return err
	}
	s.done[job] = e
	return nil
}

// Close closes the underlying file. Recorded entries remain readable via
// Lookup afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
