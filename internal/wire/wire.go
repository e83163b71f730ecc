// Package wire defines the JSON wire format shared by the daemon
// (internal/server) and the CLIs (cmd/sidrquery -json), so a query
// result serialises identically whether it travelled over HTTP or
// stdout.
//
// A result's rows — Keys[i] with Values[i], the bulk of every stream —
// travel dense, as three members instead of one small array per key and
// per value:
//
//	"keys":{"corner":[…],"shape":[…],"runs":[off,len,…]},"counts":[…],"values":[…]
//
// corner and shape are the keys' bounding box. Each run names len
// consecutive row-major cells from offset off inside it, in key order, so
// a client expands key i of a run as corner + unravel(off+i, shape), the
// last dimension varying fastest. A dense keyblock is one run; keys need
// not be sorted or distinct, since a key that does not continue the run
// before it starts a new one. counts gives each key's number of values and
// is left out when every key has exactly one; values are every key's
// values back to back, in key order. The empty row set is
// `"keys":{"corner":[],"shape":[],"runs":[]},"values":[]`. A partial and a
// Result write and read this layout by hand, without reflection
// (codec.go); their Go shape is the plain [][]int64 and [][]float64 of
// sidr.Result.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"time"

	"sidr"
)

// Error is the JSON error envelope on every non-2xx response. Detail,
// when present, narrows the cause: a 429 carries whether the rejection
// is pure admission saturation (job queue full, executor has spare
// capacity) or the task executor itself is saturated, so clients can
// tell "too many jobs" apart from "not enough workers".
type Error struct {
	Error  string `json:"error"`
	Detail string `json:"detail,omitempty"`
}

// Detail vocabulary for cluster/shuffle saturation. Clients match these
// exact strings, so they are part of the wire contract.
const (
	// DetailNoWorkers: the distributed runtime has no live worker — the
	// job cannot be dispatched (or lost its last worker mid-run).
	DetailNoWorkers = "no-workers"
	// DetailShuffleRetryExhausted: a shuffle fetch or task dispatch kept
	// failing after every retry and re-execution budget was spent.
	DetailShuffleRetryExhausted = "shuffle-retry-exhausted"
	// DetailSpillCorrupt: a Map task's re-execution budget was spent on
	// spills that kept failing their payload checksum — the job refused
	// to commit corrupt data.
	DetailSpillCorrupt = "spill-corrupt"
	// DetailTenantQuota: the submitting tenant (X-SIDR-Tenant header) is
	// at its max-in-flight quota; retry after one of its jobs finishes.
	DetailTenantQuota = "tenant-quota"
)

// VariableInfo describes one queryable variable of a registered
// dataset on GET /v1/datasets.
type VariableInfo struct {
	Name  string  `json:"name"` // "*" for synthetic datasets (any name resolves)
	Shape []int64 `json:"shape"`
	// Splits is how many Map input splits the default plan of a
	// unit-tile extraction over the full variable generates — the
	// denominator for judging how much the structural index pruned. A
	// query's own extraction can change the count: the planner rounds
	// its split bands to the tile grid (DESIGN §8).
	Splits int `json:"splits"`
	// IndexStatus tells whether a structural block-range index
	// (internal/sidx) backs the variable: "built" (scanned at
	// registration and held in memory) or "none".
	IndexStatus string `json:"index_status"`
	// IndexBlocks, IndexBytes and IndexBuildMs describe the index when
	// IndexStatus is "built": its block count, the byte size of its
	// statistics (sidx.Index.EncodedSize), and how long the
	// registration-time scan took.
	IndexBlocks  int     `json:"index_blocks,omitempty"`
	IndexBytes   int64   `json:"index_bytes,omitempty"`
	IndexBuildMs float64 `json:"index_build_ms,omitempty"`
}

// DatasetInfo is one registered dataset on GET /v1/datasets.
type DatasetInfo struct {
	Name      string         `json:"name"`
	Kind      string         `json:"kind"` // "file" or "synthetic"
	Path      string         `json:"path,omitempty"`
	Variables []VariableInfo `json:"variables"`
}

// Result is the JSON form of a completed sidr.Result. Its rows travel in
// the package's dense layout; the other members are "rows", "partials",
// "first_result_ms", "elapsed_ms" and "connections".
type Result struct {
	Keys        [][]int64
	Values      [][]float64
	Rows        int
	Partials    int
	FirstMillis float64
	ElapsedMS   float64
	Connections int64
}

// FromResult converts a sidr.Result.
func FromResult(r *sidr.Result) *Result {
	if r == nil {
		return nil
	}
	out := &Result{
		Keys:        r.Keys,
		Values:      r.Values,
		Rows:        len(r.Keys),
		Partials:    len(r.Partials),
		FirstMillis: float64(r.FirstResult) / float64(time.Millisecond),
		ElapsedMS:   float64(r.Elapsed) / float64(time.Millisecond),
		Connections: r.Connections,
	}
	if out.Keys == nil {
		out.Keys = [][]int64{}
	}
	if out.Values == nil {
		out.Values = [][]float64{}
	}
	return out
}

// partial is the JSON form of one committed keyblock — SIDR's early
// correct partial result (§4, Figure 4b) as a stream event payload. Its
// members are "keyblock", the rows in the package's dense layout, and
// "at".
type partial struct {
	Keyblock int
	Keys     [][]int64
	Values   [][]float64
	At       time.Time
}

// FromPartial converts a sidr.PartialResult.
func FromPartial(pr sidr.PartialResult) partial {
	p := partial{Keyblock: pr.Keyblock, Keys: pr.Keys, Values: pr.Values, At: pr.At}
	if p.Keys == nil {
		p.Keys = [][]int64{}
	}
	if p.Values == nil {
		p.Values = [][]float64{}
	}
	return p
}

// Stream event types, one per NDJSON line on GET /v1/jobs/{id}/stream.
const (
	EventPartial   = "partial"
	EventDone      = "done"
	EventFailed    = "failed"
	EventCancelled = "cancelled"
)

// StreamEvent is one NDJSON line of a job stream: every committed
// keyblock arrives as a "partial" event the moment its dependencies are
// met, and exactly one terminal event ("done" with the assembled result,
// "failed" with the error, or "cancelled") closes the stream.
type StreamEvent struct {
	Type    string   `json:"type"`
	JobID   string   `json:"job_id,omitempty"`
	Partial *partial `json:"partial,omitempty"`
	Result  *Result  `json:"result,omitempty"`
	Error   string   `json:"error,omitempty"`
	// Detail carries the same saturation vocabulary as Error.Detail on
	// "failed" events (e.g. DetailNoWorkers).
	Detail string `json:"detail,omitempty"`
}

// A stream event's NDJSON line splits where its bytes stop depending on
// the job it is sent for: AppendEventHead writes the opening up to and
// including the job ID, EventTail everything after it. Head + tail is,
// byte for byte, what json.Encoder emits for the StreamEvent. The server
// writes every event through this pair, and the result cache keeps tails
// (internal/jobs): a cached stream is re-sent under another job's ID by
// writing that job's head in front of bytes encoded once.

// AppendEventHead appends `{"type":"<typ>","job_id":"<jobID>"` to dst (no
// job_id member when jobID is empty).
func AppendEventHead(dst []byte, typ, jobID string) []byte {
	dst = append(dst, `{"type":`...)
	dst = appendString(dst, typ)
	if jobID != "" {
		dst = append(dst, `,"job_id":`...)
		dst = appendString(dst, jobID)
	}
	return dst
}

// EventTail returns the rest of ev's line — `,"partial":{…}}` or
// `,"result":{…}}` or the error members, down to the closing brace and
// the newline. ev's Type and JobID belong to the head and are ignored.
// Events with an error or a detail — failed and cancelled ones — are
// short and go through encoding/json; every other event, partial and
// done among them, is appended by hand.
func EventTail(ev StreamEvent) ([]byte, error) {
	if ev.Error != "" || ev.Detail != "" {
		ev.Type, ev.JobID = "", ""
		b, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		return append(b[len(`{"type":""`):], '\n'), nil
	}
	rows := 0
	if ev.Partial != nil {
		rows += len(ev.Partial.Values)
	}
	if ev.Result != nil {
		rows += len(ev.Result.Values)
	}
	dst := make([]byte, 0, 192+24*rows) // 24 bytes hold any float64's text
	var err error
	if p := ev.Partial; p != nil {
		dst = append(dst, `,"partial":`...)
		if dst, err = p.appendJSON(dst); err != nil {
			return nil, err
		}
	}
	if r := ev.Result; r != nil {
		dst = append(dst, `,"result":`...)
		if dst, err = r.appendJSON(dst); err != nil {
			return nil, err
		}
	}
	return append(dst, "}\n"...), nil
}

// appendString appends s as a JSON string. Event types and job IDs are
// plain ASCII, which is its own encoding; anything else goes the long way.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// EncodedEvent is one event of a finished result's stream in the form it
// is sent, minus the head: what the result cache keeps so that a hit is
// served by writing, not by encoding.
type EncodedEvent struct {
	Type string // the head's type member: EventPartial or EventDone
	Tail []byte // EventTail's bytes
	// Deflated is Tail as a raw deflate stream compressed on its own —
	// no back-reference leaves the segment — at the default level and
	// sync-flushed: it ends byte-aligned and holds no final block, so
	// segments and stored blocks concatenate into one valid deflate
	// stream behind any prefix.
	Deflated []byte
}

// EncodeStream encodes the whole stream of a finished result: every
// partial in log order, then the done event.
func EncodeStream(res *sidr.Result) ([]EncodedEvent, error) {
	events := make([]EncodedEvent, 0, len(res.Partials)+1)
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	add := func(ev StreamEvent) error {
		tail, err := EventTail(ev)
		if err != nil {
			return err
		}
		buf.Reset()
		fw.Reset(&buf)
		if _, err := fw.Write(tail); err != nil {
			return err
		}
		if err := fw.Flush(); err != nil {
			return err
		}
		// Both are kept for the entry's life: no spare capacity.
		events = append(events, EncodedEvent{Type: ev.Type, Tail: bytes.Clone(tail), Deflated: bytes.Clone(buf.Bytes())})
		return nil
	}
	for _, pr := range res.Partials {
		p := FromPartial(pr)
		if err := add(StreamEvent{Type: EventPartial, Partial: &p}); err != nil {
			return nil, err
		}
	}
	if err := add(StreamEvent{Type: EventDone, Result: FromResult(res)}); err != nil {
		return nil, err
	}
	return events, nil
}
