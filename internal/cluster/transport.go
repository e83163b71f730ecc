package cluster

import (
	"context"
	"net"
	"net/http"
	"time"

	"sidr/internal/metrics"
)

// newTransport builds an http.RoundTripper with phase-scoped timeouts
// instead of a whole-request deadline: dialing (and TLS handshaking)
// and waiting for response headers are each bounded, while reading an
// arbitrarily large response body is not. A blanket http.Client.Timeout
// would cut off slow-but-progressing streams; a half-dead peer that
// accepts the connection and then goes silent is still detected by the
// header timeout. Shuffle responses carry a precomputed Content-Length
// and send headers before streaming, so the header timeout never
// false-positives on a large batch stream.
//
// The pool is sized for shuffle fan-in: a Reduce wave hits every worker
// at once, and keep-alive reuse across waves is what makes the batched
// fetch path one TCP connection per (reduce, worker) stream instead of
// a dial per spill.
//
// Zero durations pick the defaults: 2s dial, 2s TLS handshake, 5s
// response header. A negative headerTimeout disables the header bound
// entirely — used by the dispatch client, whose responses arrive only
// after Map execution finishes.
func newTransport(dialTimeout, headerTimeout time.Duration) *http.Transport {
	return NewTransportWithStats(dialTimeout, headerTimeout, nil)
}

// NewTransportWithStats is newTransport with an optional dial counter:
// every new TCP connection increments dials, so pool effectiveness is
// observable (requests served minus dials made = connections reused).
func NewTransportWithStats(dialTimeout, headerTimeout time.Duration, dials *metrics.Counter) *http.Transport {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	if headerTimeout == 0 {
		headerTimeout = 5 * time.Second
	} else if headerTimeout < 0 {
		headerTimeout = 0 // net/http: zero disables the bound
	}
	dialer := &net.Dialer{
		Timeout:   dialTimeout,
		KeepAlive: 15 * time.Second,
	}
	dial := dialer.DialContext
	if dials != nil {
		dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err == nil {
				dials.Inc()
			}
			return conn, err
		}
	}
	return &http.Transport{
		DialContext:           dial,
		TLSHandshakeTimeout:   dialTimeout,
		ResponseHeaderTimeout: headerTimeout,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   32,
		IdleConnTimeout:       30 * time.Second,
	}
}
