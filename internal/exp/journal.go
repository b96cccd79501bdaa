package exp

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// journalEntry is one line of the JSONL cell journal: the full result of
// one finished cell (or its error). Metrics are stored per issue width;
// encoding/json round-trips the int64 metric fields exactly, which is
// what lets a resumed grid render byte-identical tables.
type journalEntry struct {
	Bench  string               `json:"bench"`
	Config string               `json:"config"`
	Widths map[int]*sim.Metrics `json:"metrics,omitempty"`
	Phases core.PhaseTimes      `json:"phases_ns"`
	Obs    *obs.Snapshot        `json:"obs,omitempty"`
	Error  string               `json:"error,omitempty"`
}

// JSONLWriter appends values to a JSONL journal. Every journal in the
// system — the grid engine's cell journal, bschedd's request journal,
// the fleet coordinator's cell journal — writes through it and reads
// back through ReadJSONLines. Each Append writes one whole line in one
// Write call under a mutex, so concurrent appenders never interleave
// and a crash can tear at most the final line, which ReadJSONLines
// tolerates. Errors are sticky: the first one drops every later append
// and is returned by Close. A nil *JSONLWriter (no path configured)
// discards.
type JSONLWriter[T any] struct {
	mu  sync.Mutex
	f   *os.File
	err error
}

// OpenJSONLWriter opens path for appending, creating it if needed. An
// empty path returns a nil writer, which discards.
func OpenJSONLWriter[T any](path string) (*JSONLWriter[T], error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &JSONLWriter[T]{f: f}, nil
}

// Append writes v as one line. Safe for concurrent use.
func (w *JSONLWriter[T]) Append(v T) {
	if w == nil {
		return
	}
	b, err := json.Marshal(v)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if err != nil {
		w.err = err
		return
	}
	if _, err := w.f.Write(append(b, '\n')); err != nil {
		w.err = err
	}
}

// Close syncs and closes the file, returning the first sticky append
// error, else the sync or close error.
func (w *JSONLWriter[T]) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	serr := w.f.Sync()
	cerr := w.f.Close()
	switch {
	case w.err != nil:
		return w.err
	case serr != nil:
		return serr
	default:
		return cerr
	}
}

// readJournal loads a cell journal for -resume. A missing file is an
// empty journal.
func readJournal(path string) ([]journalEntry, error) {
	return ReadJSONLines[journalEntry](path)
}

// ReadJSONLines loads a JSONL file written by an append-only journal,
// tolerating the torn tail of an interrupted run: a missing file is an
// empty journal, blank lines are skipped, and parsing stops at the
// first malformed line, keeping every entry before it. Every journal in
// the system — the grid engine's cell journal, bschedd's request
// journal, the fleet coordinator's cell journal — resumes through this
// one reader so they all share the same crash-tolerance contract.
func ReadJSONLines[T any](path string) ([]T, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []T
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e T
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			break
		}
		out = append(out, e)
	}
	return out, nil
}

// WriteFileAtomic writes data to path via a temporary file in the same
// directory plus rename, so a reader (or a crash) never observes a
// partially written file.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
