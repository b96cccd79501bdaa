package exp

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// journalProbe is a small journal line for the writer tests.
type journalProbe struct {
	G int    `json:"g"`
	I int    `json:"i"`
	S string `json:"s"`
}

// TestJSONLWriterConcurrentAppends has many goroutines append at once:
// every entry must read back whole, exactly once, with no interleaved
// or torn lines. Run under -race in CI.
func TestJSONLWriterConcurrentAppends(t *testing.T) {
	const goroutines, perG = 8, 200
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := OpenJSONLWriter[journalProbe](path)
	if err != nil {
		t.Fatal(err)
	}
	// A long payload makes each line span many bytes, so interleaved
	// writes would corrupt lines rather than slip through.
	pad := string(make([]byte, 512))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w.Append(journalProbe{G: g, I: i, S: pad})
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadJSONLines[journalProbe](path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != goroutines*perG {
		t.Fatalf("read back %d entries, want %d", len(got), goroutines*perG)
	}
	seen := make(map[[2]int]bool, len(got))
	next := make([]int, goroutines)
	for _, e := range got {
		k := [2]int{e.G, e.I}
		if seen[k] {
			t.Fatalf("entry %v appears twice", k)
		}
		seen[k] = true
		if len(e.S) != len(pad) {
			t.Fatalf("entry %v payload %d bytes, want %d", k, len(e.S), len(pad))
		}
		// One goroutine's appends land in its own program order.
		if e.I != next[e.G] {
			t.Fatalf("goroutine %d: entry %d out of order, want %d", e.G, e.I, next[e.G])
		}
		next[e.G]++
	}
}

// TestJSONLWriterNilDiscards checks the no-path contract: an empty path
// opens a nil writer, and Append/Close on it do nothing.
func TestJSONLWriterNilDiscards(t *testing.T) {
	w, err := OpenJSONLWriter[journalProbe]("")
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatal("empty path opened a non-nil writer")
	}
	w.Append(journalProbe{G: 1})
	if err := w.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

// TestJSONLWriterTornTail tears the final line of a written journal by
// hand: ReadJSONLines must return every entry before it.
func TestJSONLWriterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := OpenJSONLWriter[journalProbe](path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		w.Append(journalProbe{I: i, S: "x"})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the trailing newline and half of the last line.
	last := len(data) - 1
	for last > 0 && data[last-1] != '\n' {
		last--
	}
	torn := data[:last+(len(data)-1-last)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := ReadJSONLines[journalProbe](path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n-1 {
		t.Fatalf("read back %d entries from torn journal, want %d", len(got), n-1)
	}
	for i, e := range got {
		if e.I != i {
			t.Errorf("entry %d has I=%d", i, e.I)
		}
	}
}
