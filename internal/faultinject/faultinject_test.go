package faultinject

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	spec, err := Parse("seed=42,match=/v1/shuffle/,delay=0.2:50ms,drop=0.05,error=0.1,slow=0.25:2ms,flip=0.05,map-delay=0.2:100ms,hang=0.01,kill-after-maps=5")
	if err != nil {
		t.Fatal(err)
	}
	want := schedule{
		Seed: 42, Match: "/v1/shuffle/",
		DelayP: 0.2, Delay: 50 * time.Millisecond,
		DropP: 0.05, ErrorP: 0.1,
		SlowP: 0.25, SlowChunk: 1024, SlowPause: 2 * time.Millisecond,
		FlipP:     0.05,
		MapDelayP: 0.2, MapDelay: 100 * time.Millisecond,
		HangP: 0.01, KillAfterMaps: 5,
	}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if _, err := Parse(""); err != nil {
		t.Fatalf("empty spec rejected: %v", err)
	}
	for _, bad := range []string{"bogus=1", "drop=1.5", "delay=0.1:nope", "kill-after-maps=-2"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// TestDeterminism: two injectors with the same seed make identical
// decisions for the same probe sequence.
func TestDeterminism(t *testing.T) {
	seq := func() []bool {
		in := New(schedule{Seed: 7})
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.roll(0.3, "x")
		}
		return out
	}
	if !reflect.DeepEqual(seq(), seq()) {
		t.Fatal("same seed produced different schedules")
	}
}

// roundTripperFunc adapts a func to http.RoundTripper.
type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func okResponse(body string) *http.Response {
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(bytes.NewReader([]byte(body))),
		Header:     make(http.Header),
	}
}

func TestTransportDropAndError(t *testing.T) {
	inner := roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		return okResponse("payload"), nil
	})
	req := httptest.NewRequest(http.MethodGet, "http://x/v1/map", nil)

	in := New(schedule{Seed: 1, DropP: 1})
	if _, err := in.Transport(inner).RoundTrip(req); !errors.Is(err, errInjectedDrop) {
		t.Fatalf("err = %v, want errInjectedDrop", err)
	}
	if in.Counts()["drop"] != 1 {
		t.Fatalf("counts = %v", in.Counts())
	}

	in = New(schedule{Seed: 1, ErrorP: 1})
	resp, err := in.Transport(inner).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestTransportFlipChangesExactlyOneBit: the flipped body differs from
// the original in exactly one bit, and the full body still arrives.
func TestTransportFlipChangesExactlyOneBit(t *testing.T) {
	orig := bytes.Repeat([]byte{0xAA}, 4096)
	inner := roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		return okResponse(string(orig)), nil
	})
	in := New(schedule{Seed: 3, FlipP: 1})
	resp, err := in.Transport(inner).RoundTrip(httptest.NewRequest(http.MethodGet, "http://x/", nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(got) != len(orig) {
		t.Fatalf("flip changed body length: %d != %d", len(got), len(orig))
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^orig[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flip changed %d bits, want exactly 1", diff)
	}
}

// TestTransportSlowStreamDeliversEverything: slow streaming trickles
// but loses nothing.
func TestTransportSlowStreamDeliversEverything(t *testing.T) {
	body := bytes.Repeat([]byte("abcdefgh"), 64)
	inner := roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		return okResponse(string(body)), nil
	})
	in := New(schedule{Seed: 9, SlowP: 1, SlowChunk: 16, SlowPause: time.Microsecond})
	resp, err := in.Transport(inner).RoundTrip(httptest.NewRequest(http.MethodGet, "http://x/", nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !bytes.Equal(got, body) {
		t.Fatalf("slow stream corrupted body: %d bytes vs %d", len(got), len(body))
	}
	if in.Counts()["slow"] != 1 {
		t.Fatalf("counts = %v", in.Counts())
	}
}

// TestTransportMatchFilter: chaos only applies to matching paths.
func TestTransportMatchFilter(t *testing.T) {
	inner := roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		return okResponse("ok"), nil
	})
	in := New(schedule{Seed: 1, DropP: 1, Match: "/v1/shuffle/"})
	resp, err := in.Transport(inner).RoundTrip(httptest.NewRequest(http.MethodGet, "http://x/v1/map", nil))
	if err != nil {
		t.Fatalf("non-matching path was chaosed: %v", err)
	}
	resp.Body.Close()
	if _, err := in.Transport(inner).RoundTrip(httptest.NewRequest(http.MethodGet, "http://x/v1/shuffle/j/0/0/0", nil)); !errors.Is(err, errInjectedDrop) {
		t.Fatalf("matching path not dropped: %v", err)
	}
}

// TestMiddlewareFlip: server-side flip corrupts the served bytes while
// an untouched request passes through verbatim.
func TestMiddlewareFlip(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5C}, 1024)
	inner := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Write(payload)
	})
	in := New(schedule{Seed: 11, FlipP: 1, Match: "/v1/shuffle/"})
	srv := httptest.NewServer(in.Middleware(inner))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/shuffle/j/0/0/0")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if bytes.Equal(got, payload) {
		t.Fatal("middleware flip left payload intact")
	}
	if len(got) != len(payload) {
		t.Fatalf("flip changed length: %d != %d", len(got), len(payload))
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got, payload) {
		t.Fatal("non-matching path was altered")
	}
}

// TestBeforeMapKillSchedule: the kill fires exactly at the scheduled
// attempt, through the overridable exit hook.
func TestBeforeMapKillSchedule(t *testing.T) {
	in := New(schedule{Seed: 5, KillAfterMaps: 3})
	var killed []int
	in.exit = func(code int) { killed = append(killed, code) }
	for i := 0; i < 3; i++ {
		in.BeforeMap(context.Background())
	}
	if len(killed) != 1 || killed[0] != 137 {
		t.Fatalf("kills = %v, want one exit(137) on attempt 3", killed)
	}
	if in.Counts()["kill"] != 1 {
		t.Fatalf("counts = %v", in.Counts())
	}
}

// TestBeforeMapHangRespectsContext: a hung attempt unblocks when its
// context is cancelled and reports the injected hang.
func TestBeforeMapHangRespectsContext(t *testing.T) {
	in := New(schedule{Seed: 5, HangP: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- in.BeforeMap(ctx) }()
	select {
	case err := <-done:
		t.Fatalf("hang returned before cancel: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, errInjectedHang) {
			t.Fatalf("err = %v, want errInjectedHang", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hang did not unblock on cancel")
	}
}

// Counts snapshots how many of each action fired, keyed by action name
// ("delay", "drop", "error", "slow", "flip", "map-delay", "hang",
// "kill"). Tests assert the chaos they scheduled actually happened.
func (in *Injector) Counts() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}
