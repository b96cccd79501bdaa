package server

// journalRecord is one line of the request journal: the outcome of one
// admitted request, appended as the request finishes through the shared
// exp.JSONLWriter. The journal is the serving analog of the experiment
// engine's cell journal — after a drain it holds a complete record of
// every admitted request, including the ones the drain deadline
// canceled. All writes happen while the server's in-flight accounting
// holds the request open, so Drain's close observes every admitted
// request already journaled.
type journalRecord struct {
	// ID is the request ID (X-Request-Id or generated).
	ID string `json:"id"`
	// Endpoint is "compile" or "grid".
	Endpoint string `json:"endpoint"`
	// Bench and Config identify a compile request's cell (empty for grid).
	Bench  string `json:"bench,omitempty"`
	Config string `json:"config,omitempty"`
	// Status is the HTTP status served.
	Status int `json:"status"`
	// Cache is "hit" or "miss" for compile requests served a result.
	Cache string `json:"cache,omitempty"`
	// Kind is the structured error kind for non-200 outcomes.
	Kind string `json:"kind,omitempty"`
	// DurationMS is request wall-clock in milliseconds.
	DurationMS int64 `json:"duration_ms"`
}
