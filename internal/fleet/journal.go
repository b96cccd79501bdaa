package fleet

import (
	"encoding/json"

	"repro/internal/exp"
)

// CellRecord is one line of the coordinator's cell journal: a finished
// cell with the worker that served it. Unlike the single-node journals
// (which are driven from one goroutine or one request each), the
// coordinator journal is appended from concurrent dispatch goroutines;
// the appender serializes writes.
//
// Resume correctness across topology changes falls out of the record
// shape: a completed cell is keyed by (bench, config, verify) only —
// the worker field is attribution, not identity — so a journal written
// by a 3-worker fleet replays fine into a 2-worker one.
type CellRecord struct {
	// ID is the grid request the cell belonged to.
	ID string `json:"id"`
	// Bench, Config and Verify identify the cell.
	Bench  string `json:"bench"`
	Config string `json:"config"`
	Verify bool   `json:"verify,omitempty"`
	// Worker is the address that served the cell ("resume" for replays).
	Worker string `json:"worker,omitempty"`
	// Status is "ok" or the failure kind ("degraded", "timeout", ...).
	Status string `json:"status"`
	// Attempts counts dispatch attempts (0 for resume replays).
	Attempts int `json:"attempts,omitempty"`
	// Body is the worker's result document for ok cells — exactly the
	// bytes a resumed coordinator will serve again.
	Body json.RawMessage `json:"body,omitempty"`
	// DurationMS is the cell's dispatch wall-clock.
	DurationMS int64 `json:"duration_ms"`
}

// loadResume reads a cell journal through the shared torn-tail-tolerant
// reader and returns the completed cells' bodies keyed by cell key. A
// torn final line (the coordinator died mid-append) silently truncates
// to the last complete record, exactly like every other journal in the
// system.
func loadResume(path string) (map[string][]byte, error) {
	recs, err := exp.ReadJSONLines[CellRecord](path)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(recs))
	for _, r := range recs {
		if r.Status == "ok" && len(r.Body) > 0 {
			out[cellKey(r.Bench, r.Config, r.Verify)] = append([]byte(nil), r.Body...)
		}
	}
	return out, nil
}
