package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestEventHeadAndTailAreTheEncodersLine pins the envelope: for every
// event shape the stream sends, head + tail is exactly the line
// json.Encoder writes for the StreamEvent — so a line assembled from a
// cached tail cannot differ from one encoded whole.
func TestEventHeadAndTailAreTheEncodersLine(t *testing.T) {
	at := time.Date(2026, 10, 4, 12, 0, 0, 123456789, time.UTC)
	events := []StreamEvent{
		{Type: EventPartial, JobID: "job-000001", Partial: &partial{
			Keyblock: 3, Keys: [][]int64{{0, 1}, {0, 2}}, Values: [][]float64{{1.5}, {math.MaxFloat64, 1e-7}}, At: at}},
		{Type: EventPartial, JobID: "job-000002", Partial: &partial{Keys: [][]int64{}, Values: [][]float64{}, At: at}},
		{Type: EventPartial, JobID: "job-000002", Partial: &partial{Keys: [][]int64{{4}}, Values: [][]float64{{}}, At: at}},
		{Type: EventDone, JobID: "job-000003", Result: &Result{
			Keys: [][]int64{{7}}, Values: [][]float64{{0.1}}, Rows: 1, Partials: 1, FirstMillis: 0.25, ElapsedMS: 3, Connections: 9}},
		{Type: EventFailed, JobID: "job-000004", Error: "no <workers> & \"none\"", Detail: DetailNoWorkers},
		{Type: EventCancelled, JobID: "job-000005", Error: "context canceled"},
		{Type: EventCancelled, JobID: "job-000006"},
		{Type: EventDone},
		{Type: "odd\"type", JobID: "jöb <7>"},
	}
	for _, ev := range events {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ev); err != nil {
			t.Fatal(err)
		}
		tail, err := EventTail(ev)
		if err != nil {
			t.Fatal(err)
		}
		got := append(AppendEventHead(nil, ev.Type, ev.JobID), tail...)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("head + tail = %q\nencoder      = %q", got, want.Bytes())
		}
	}
}
