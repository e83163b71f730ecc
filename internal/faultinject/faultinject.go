// Package faultinject is a deterministic, seeded chaos layer for the
// distributed runtime. One Injector, built from a scriptable schedule,
// drives every kind of adversity the cluster must survive:
//
//   - a client-side http.RoundTripper wrapper (Transport) that can
//     delay requests, drop them at the connection level, replace
//     responses with injected 503s, slow-stream response bodies, or
//     flip one bit of a response payload in transit;
//   - a server-side http.Handler wrapper (Middleware) applying the same
//     error/slow/flip actions to responses a worker serves;
//   - worker-side task hooks (BeforeMap) that stall a Map attempt, hang
//     it until its context is cancelled, or kill the whole process
//     after a scheduled number of attempts.
//
// Every decision comes from one seeded PRNG behind a mutex, so a given
// (seed, sequence of probes) replays the same schedule — chaos tests
// are reproducible, and `sidr-worker -chaos` / `sidrd -chaos` schedules
// can be pinned in CI. The injector counts how many of each action
// actually fired, so tests can assert the chaos they asked for
// happened.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// errInjectedDrop is the connection-level failure Transport returns for
// a dropped request; the coordinator treats it like any dial failure.
var errInjectedDrop = errors.New("faultinject: injected connection drop")

// errInjectedHang is returned by BeforeMap when a hung attempt's
// context is cancelled out from under it.
var errInjectedHang = errors.New("faultinject: injected hang cancelled")

// schedule is one chaos schedule. Probabilities are per-decision in [0,1];
// zero values disable an action. Parse builds one from the compact
// flag syntax shared by -chaos on sidrd and sidr-worker.
type schedule struct {
	// Seed seeds the schedule's PRNG; the same seed replays the same
	// decisions in the same probe order.
	Seed int64
	// Match restricts transport/middleware chaos to URL paths containing
	// this substring ("" = all paths).
	Match string

	// DelayP delays a request by Delay before forwarding it.
	DelayP float64
	Delay  time.Duration
	// DropP fails a request at the connection level (errInjectedDrop).
	DropP float64
	// ErrorP replaces a response with an injected 503.
	ErrorP float64
	// SlowP streams the response body in SlowChunk-byte pieces with a
	// SlowPause sleep between them.
	SlowP     float64
	SlowChunk int
	SlowPause time.Duration
	// FlipP flips one seeded-random bit of the response body.
	FlipP float64

	// MapDelayP stalls a worker's Map attempt by MapDelay (straggler).
	MapDelayP float64
	MapDelay  time.Duration
	// HangP hangs a Map attempt until its context is cancelled.
	HangP float64
	// KillAfterMaps, when > 0, kills the worker process (exit 137, as if
	// SIGKILLed) the moment it has begun this many Map attempts.
	KillAfterMaps int
}

// Parse decodes the -chaos flag syntax: comma-separated actions, each
// "name", "name=p" or "name=p:arg". Example:
//
//	seed=42,match=/v1/shuffle/,delay=0.2:50ms,drop=0.05,error=0.1,
//	slow=0.1:2ms,flip=0.05,map-delay=0.2:100ms,hang=0.01,kill-after-maps=5
func Parse(s string) (schedule, error) {
	spec := schedule{SlowChunk: 1024, SlowPause: time.Millisecond, Delay: 25 * time.Millisecond, MapDelay: 100 * time.Millisecond}
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, val, _ := strings.Cut(field, "=")
		val, arg, hasArg := strings.Cut(val, ":")
		p := func() (float64, error) {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return 0, fmt.Errorf("faultinject: %s wants a probability in [0,1], got %q", name, val)
			}
			return f, nil
		}
		dur := func(dst *time.Duration) error {
			if !hasArg {
				return nil
			}
			d, err := time.ParseDuration(arg)
			if err != nil || d < 0 {
				return fmt.Errorf("faultinject: %s: bad duration %q", name, arg)
			}
			*dst = d
			return nil
		}
		var err error
		switch name {
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
		case "match":
			spec.Match = val
		case "delay":
			if spec.DelayP, err = p(); err == nil {
				err = dur(&spec.Delay)
			}
		case "drop":
			spec.DropP, err = p()
		case "error":
			spec.ErrorP, err = p()
		case "slow":
			if spec.SlowP, err = p(); err == nil {
				err = dur(&spec.SlowPause)
			}
		case "flip":
			spec.FlipP, err = p()
		case "map-delay":
			if spec.MapDelayP, err = p(); err == nil {
				err = dur(&spec.MapDelay)
			}
		case "hang":
			spec.HangP, err = p()
		case "kill-after-maps":
			spec.KillAfterMaps, err = strconv.Atoi(val)
			if err == nil && spec.KillAfterMaps < 0 {
				err = fmt.Errorf("faultinject: kill-after-maps must be >= 0")
			}
		default:
			return spec, fmt.Errorf("faultinject: unknown chaos action %q", name)
		}
		if err != nil {
			return spec, fmt.Errorf("faultinject: parsing %q: %w", field, err)
		}
	}
	return spec, nil
}

// Injector applies one schedule. Safe for concurrent use; all
// randomness flows through one seeded PRNG so a fixed probe order
// replays identically.
type Injector struct {
	spec schedule

	mu     sync.Mutex
	rng    *rand.Rand
	counts map[string]int64
	maps   int

	// exit terminates the process on a kill schedule; tests override it.
	exit func(code int)
}

// New builds an injector for the spec.
func New(spec schedule) *Injector {
	if spec.SlowChunk <= 0 {
		spec.SlowChunk = 1024
	}
	return &Injector{
		spec:   spec,
		rng:    rand.New(rand.NewSource(spec.Seed)),
		counts: make(map[string]int64),
		exit:   os.Exit,
	}
}

// roll draws one decision; fires with probability p and counts it.
func (in *Injector) roll(p float64, action string) bool {
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	hit := in.rng.Float64() < p
	if hit {
		in.counts[action]++
	}
	in.mu.Unlock()
	return hit
}

// intn draws a seeded integer in [0, n).
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

func (in *Injector) matches(path string) bool {
	return in.spec.Match == "" || strings.Contains(path, in.spec.Match)
}

// sleep waits for d or ctx, whichever ends first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Transport wraps an http.RoundTripper with the spec's client-side
// chaos. nil inner uses http.DefaultTransport.
func (in *Injector) Transport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &chaosTransport{in: in, inner: inner}
}

type chaosTransport struct {
	in    *Injector
	inner http.RoundTripper
}

func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	in := t.in
	if !in.matches(req.URL.Path) {
		return t.inner.RoundTrip(req)
	}
	if in.roll(in.spec.DelayP, "delay") {
		if err := sleep(req.Context(), in.spec.Delay); err != nil {
			return nil, err
		}
	}
	if in.roll(in.spec.DropP, "drop") {
		return nil, errInjectedDrop
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if in.roll(in.spec.ErrorP, "error") {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return injectedError(req), nil
	}
	if in.roll(in.spec.FlipP, "flip") {
		resp.Body = &flipReader{in: in, inner: resp.Body}
	}
	if in.roll(in.spec.SlowP, "slow") {
		resp.Body = &slowReader{
			inner: resp.Body,
			ctx:   req.Context(),
			chunk: in.spec.SlowChunk,
			pause: in.spec.SlowPause,
		}
	}
	return resp, nil
}

// injectedError is the synthetic 503 the error action substitutes.
func injectedError(req *http.Request) *http.Response {
	body := "chaos: injected error\n"
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// flipReader buffers the body on first read and flips one seeded-random
// bit — preferring an offset past the typical spill header so payload
// checksums, not header parsing, catch the corruption.
type flipReader struct {
	in    *Injector
	inner io.ReadCloser
	buf   []byte
	off   int
	read  bool
	err   error
}

// flipSkip is the byte offset corruption prefers to land past: the
// size of the kv spill header (28 bytes), so flips land
// in CRC-guarded territory — block payloads, block headers, or batch
// frame headers — rather than in uncovered structural header fields.
const flipSkip = 28

func (f *flipReader) Read(p []byte) (int, error) {
	if !f.read {
		f.read = true
		f.buf, f.err = io.ReadAll(f.inner)
		if len(f.buf) > 0 {
			lo := 0
			if len(f.buf) > flipSkip {
				lo = flipSkip
			}
			i := lo + f.in.intn(len(f.buf)-lo)
			f.buf[i] ^= 1 << f.in.intn(8)
		}
	}
	if f.off >= len(f.buf) {
		if f.err != nil {
			return 0, f.err
		}
		return 0, io.EOF
	}
	n := copy(p, f.buf[f.off:])
	f.off += n
	return n, nil
}

func (f *flipReader) Close() error { return f.inner.Close() }

// slowReader trickles the body chunk-by-chunk with a pause between
// chunks — the slow-stream failure a whole-response client timeout
// mistakes for a dead peer.
type slowReader struct {
	inner io.ReadCloser
	ctx   context.Context
	chunk int
	pause time.Duration
	begun bool
}

func (s *slowReader) Read(p []byte) (int, error) {
	if s.begun {
		if err := sleep(s.ctx, s.pause); err != nil {
			return 0, err
		}
	}
	s.begun = true
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	return s.inner.Read(p)
}

func (s *slowReader) Close() error { return s.inner.Close() }

// Middleware wraps a server handler with the spec's response-side chaos
// (error, flip, slow) on matching paths — how a chaotic worker serves
// corrupt or crawling shuffle responses without the coordinator's
// transport being in on it.
func (in *Injector) Middleware(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if !in.matches(r.URL.Path) {
			inner.ServeHTTP(rw, r)
			return
		}
		if in.roll(in.spec.ErrorP, "error") {
			http.Error(rw, "chaos: injected error", http.StatusServiceUnavailable)
			return
		}
		flip := in.roll(in.spec.FlipP, "flip")
		slow := in.roll(in.spec.SlowP, "slow")
		if !flip && !slow {
			inner.ServeHTTP(rw, r)
			return
		}
		rec := &bufferedResponse{header: make(http.Header), code: http.StatusOK}
		inner.ServeHTTP(rec, r)
		body := rec.body
		if flip && len(body) > 0 {
			lo := 0
			if len(body) > flipSkip {
				lo = flipSkip
			}
			i := lo + in.intn(len(body)-lo)
			body[i] ^= 1 << in.intn(8)
		}
		h := rw.Header()
		for k, v := range rec.header {
			h[k] = v
		}
		rw.WriteHeader(rec.code)
		if !slow {
			rw.Write(body)
			return
		}
		fl, _ := rw.(http.Flusher)
		for off := 0; off < len(body); off += in.spec.SlowChunk {
			end := off + in.spec.SlowChunk
			if end > len(body) {
				end = len(body)
			}
			if _, err := rw.Write(body[off:end]); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
			if sleep(r.Context(), in.spec.SlowPause) != nil {
				return
			}
		}
	})
}

// bufferedResponse captures a handler's response for post-processing.
type bufferedResponse struct {
	header http.Header
	code   int
	body   []byte
}

func (b *bufferedResponse) Header() http.Header { return b.header }
func (b *bufferedResponse) WriteHeader(code int) {
	b.code = code
}
func (b *bufferedResponse) Write(p []byte) (int, error) {
	b.body = append(b.body, p...)
	return len(p), nil
}

// BeforeMap is the worker-side hook run as a Map attempt begins. It
// applies the straggler schedule (map-delay, hang) and the kill
// schedule (kill-after-maps). A non-nil error means the attempt was
// aborted (hang cancelled); the worker fails the dispatch.
func (in *Injector) BeforeMap(ctx context.Context) error {
	in.mu.Lock()
	in.maps++
	kill := in.spec.KillAfterMaps > 0 && in.maps >= in.spec.KillAfterMaps
	if kill {
		in.counts["kill"]++
	}
	exit := in.exit
	in.mu.Unlock()
	if kill {
		// Exit as if SIGKILLed: no graceful shutdown, spills abandoned.
		exit(137)
		return errors.New("faultinject: kill scheduled") // reached only under a test exit hook
	}
	if in.roll(in.spec.MapDelayP, "map-delay") {
		if err := sleep(ctx, in.spec.MapDelay); err != nil {
			return err
		}
	}
	if in.roll(in.spec.HangP, "hang") {
		<-ctx.Done()
		return fmt.Errorf("%w: %v", errInjectedHang, ctx.Err())
	}
	return nil
}
