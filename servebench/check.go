package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
)

// resultsPrefix starts every complete /api/query answer: webdemo writes
// a JSON object whose keys sort, so a "degraded" or "error" key would
// come first.
var resultsPrefix = []byte(`{"results":[`)

// resultJSON is one entry of an /api/query answer, as webdemo renders it.
type resultJSON struct {
	Score    int      `json:"score"`
	Rendered string   `json:"rendered"`
	Objects  []string `json:"objects"`
}

// renderBody renders results exactly as webdemo's /api/query handler
// does for a default-scorer query, so an HTTP answer can be compared to
// an engine answer byte for byte.
func renderBody(sys *core.System, rs []exec.Result) []byte {
	out := make([]resultJSON, 0, len(rs))
	for _, r := range rs {
		out = append(out, resultJSON{Score: r.Score, Rendered: sys.RenderResult(r), Objects: sys.ResultSummaries(r)})
	}
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(map[string]interface{}{"results": out}) // encoding strings and ints cannot fail
	return buf.Bytes()
}

// reference is the engine's direct answer to q, rendered: what the
// served answer must equal.
func reference(sys *core.System, q query) ([]byte, error) {
	rs, rx, err := sys.QueryScoredContext(context.Background(), q.keywords, topK, "")
	if err != nil {
		return nil, fmt.Errorf("reference answer for %q: %w", q.keywords, err)
	}
	if rx != nil {
		return nil, fmt.Errorf("reference answer for %q was relaxed", q.keywords)
	}
	return renderBody(sys, rs), nil
}

// sameResults reports whether two result lists agree in every ranked
// field: score, canonical order and the bound target objects.
func sameResults(a, b []exec.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Score != b[i].Score || a[i].Ord != b[i].Ord || len(a[i].Bind) != len(b[i].Bind) {
			return false
		}
		for j := range a[i].Bind {
			if a[i].Bind[j] != b[i].Bind[j] {
				return false
			}
		}
	}
	return true
}
