package server

import (
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"sidr/internal/wire"
)

// gzipWriter layers a gzip compressor over the response while keeping
// the streaming contract: Flush drains the compressor's buffer as a
// complete deflate block and then flushes the HTTP layer, so an NDJSON
// partial written before a Flush is decodable by the client the moment
// it is sent — compression must not hold early results hostage.
type gzipWriter struct {
	http.ResponseWriter
	gz *gzip.Writer
}

func (g *gzipWriter) Write(p []byte) (int, error) { return g.gz.Write(p) }

func (g *gzipWriter) Flush() {
	g.gz.Flush()
	if f, ok := g.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// acceptsGzip reports whether the request's Accept-Encoding allows a
// gzip response: a "gzip" token whose weight is not zero in any spelling
// (RFC 9110 §12.4.2: q=0, q=0.0, q=0.000 all mean "not acceptable"). A
// weight that does not parse is taken as a refusal.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(enc) != "gzip" {
			continue
		}
		if strings.TrimSpace(params) == "" {
			return true
		}
		name, weight, _ := strings.Cut(params, "=")
		q, err := strconv.ParseFloat(strings.TrimSpace(weight), 64)
		return strings.EqualFold(strings.TrimSpace(name), "q") && err == nil && q > 0 && q <= 1
	}
	return false
}

// gzipWriters recycles the live path's compressors: a gzip.Writer is
// ≈ 1 MB of state that a fresh one allocates and zeroes per response,
// even for a 400-byte 202. They compress at BestSpeed because a live
// response is compressed once and sent once: the default level spends
// ≈ 5 ms of CPU on a 107 KB stream to save 6 KB, which pays only on a
// link slower than ≈ 10 Mbit/s. What is sent many times — a cached
// result's stream — is compressed once at the default level instead
// (wire.EncodeStream) and spliced by writeCachedStream.
var gzipWriters = sync.Pool{New: func() any {
	gz, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // a valid level cannot fail
	return gz
}}

// compressed negotiates the response encoding: a client that accepts
// gzip gets w wrapped in a pooled compressor, any other client w itself.
// The caller must call done once the response is written. The
// Content-Length is necessarily dropped (the compressed size isn't known
// up front); streaming responses never had one anyway.
func compressed(w http.ResponseWriter, r *http.Request) (_ http.ResponseWriter, done func()) {
	if !acceptsGzip(r) {
		return w, func() {}
	}
	w.Header().Set("Content-Encoding", "gzip")
	w.Header().Add("Vary", "Accept-Encoding")
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	return &gzipWriter{ResponseWriter: w, gz: gz}, func() {
		gz.Close()
		gzipWriters.Put(gz)
	}
}

// gzipped wraps a handler so clients that ask for gzip get it — JSON
// results and NDJSON streams alike — and clients that don't are served
// identity bytes.
func gzipped(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w, done := compressed(w, r)
		defer done()
		h(w, r)
	}
}

// writeCachedStream sends a cached result's whole NDJSON stream under
// the given job ID from the bytes the cache keeps — no JSON encoding, no
// compression. Each event's line is the job's head followed by the
// cached tail; only the head, ≈ 45 bytes, is made per request.
//
// For a client that accepts gzip the body is one gzip member assembled
// by hand:
//
//	10-byte header · [stored block(head) · cached deflate segment]* ·
//	final empty stored block · CRC-32 · ISIZE
//
// Every cached segment was compressed on its own and sync-flushed, so it
// is byte-aligned, holds no final block and never references bytes
// before itself. The head goes in a stored block because nothing else
// could carry it for free: it differs per job, and a compressed block
// would need a compressor per request.
func writeCachedStream(w http.ResponseWriter, r *http.Request, jobID string, events []wire.EncodedEvent) {
	gz := acceptsGzip(r)
	var scratch [128]byte
	var size int64 // of the identity stream
	n := 0         // body bytes
	for _, ev := range events {
		head := len(wire.AppendEventHead(scratch[:0], ev.Type, jobID))
		size += int64(head + len(ev.Tail))
		if gz {
			n += storedHeaderLen + head + len(ev.Deflated)
		}
	}
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("Cache-Control", "no-store")
	if gz {
		h.Set("Content-Encoding", "gzip")
		h.Add("Vary", "Accept-Encoding")
		n += len(gzipHeader) + storedHeaderLen + 8
	} else {
		n = int(size)
	}
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)

	if !gz {
		for _, ev := range events {
			w.Write(wire.AppendEventHead(scratch[:0], ev.Type, jobID))
			w.Write(ev.Tail)
		}
		return
	}
	w.Write(gzipHeader)
	var crc uint32
	for _, ev := range events {
		block := wire.AppendEventHead(scratch[:storedHeaderLen], ev.Type, jobID)
		head := block[storedHeaderLen:]
		putStoredHeader(block, len(head), false)
		w.Write(block)
		w.Write(ev.Deflated)
		crc = crc32.Update(crc32.Update(crc, crc32.IEEETable, head), crc32.IEEETable, ev.Tail)
	}
	trailer := scratch[:storedHeaderLen+8]
	putStoredHeader(trailer, 0, true)
	binary.LittleEndian.PutUint32(trailer[storedHeaderLen:], crc)
	binary.LittleEndian.PutUint32(trailer[storedHeaderLen+4:], uint32(size))
	w.Write(trailer)
}

// gzipHeader is RFC 1952's fixed member header as gzip.Writer writes it:
// magic, CM = deflate, no flags, no mtime, no extra flags, OS unknown.
var gzipHeader = []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}

// storedHeaderLen is the size of a deflate stored block's header when the
// block starts byte-aligned: BFINAL and BTYPE = 00 padded to one byte,
// then LEN and its complement (RFC 1951 §3.2.4).
const storedHeaderLen = 5

// putStoredHeader writes that header for n ≤ 65535 bytes into b[:5].
func putStoredHeader(b []byte, n int, final bool) {
	b[0] = 0
	if final {
		b[0] = 1
	}
	binary.LittleEndian.PutUint16(b[1:], uint16(n))
	binary.LittleEndian.PutUint16(b[3:], ^uint16(n))
}
