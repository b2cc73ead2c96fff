package service

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"sync"
)

// deflateMin is the smallest response body the cache stores compressed.
// Paper-size /schedule bodies (≈ 0.4 KB) stay below it, so the hottest hit
// path never inflates. /evaluate (0.5–2.7 KB) and /tune (7–8 KB) bodies are
// most of a Monte-Carlo server's retained heap; above the threshold they
// shrink 2.8× and 3.6×, for about 0.1 ms of compression (2-CPU box, under
// load) on the miss that computed them.
const deflateMin = 1 << 10

// deflatedMark leads a compressed cache entry. A JSON body never starts with
// a NUL byte, so a raw entry cannot be mistaken for one. The mark is
// followed by the body's length as a uvarint, then the flate stream.
const deflatedMark = 0x00

// deflater is a pooled flate writer and the buffer it writes into.
type deflater struct {
	zw  *flate.Writer
	buf bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	zw, _ := flate.NewWriter(nil, flate.BestSpeed) // BestSpeed is a valid level
	return &deflater{zw: zw}
}}

// inflater is a pooled flate reader and the source it reads from.
type inflater struct {
	zr  io.ReadCloser
	src bytes.Reader
}

var inflaters = sync.Pool{New: func() any {
	in := &inflater{}
	in.zr = flate.NewReader(&in.src)
	return in
}}

// deflateEntry returns what the response cache stores for body: body itself
// below deflateMin, otherwise a new slice holding the marked, compressed
// form.
func deflateEntry(body []byte) []byte {
	if len(body) < deflateMin {
		return body
	}
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = deflatedMark
	d.buf.Reset()
	d.buf.Write(hdr[:1+binary.PutUvarint(hdr[1:], uint64(len(body)))])
	d.zw.Reset(&d.buf)
	d.zw.Write(body) // writes to a bytes.Buffer cannot fail
	d.zw.Close()
	// A copy: the pooled buffer is the next entry's scratch.
	return bytes.Clone(d.buf.Bytes())
}

// inflateEntry returns the response body a cache entry stores, as a new
// slice when the entry is compressed. ok is false only for a compressed
// entry that does not inflate to its recorded length, which deflateEntry
// never produces; callers treat it as a miss.
func inflateEntry(v []byte) (body []byte, ok bool) {
	if len(v) == 0 || v[0] != deflatedMark {
		return v, true
	}
	n, k := binary.Uvarint(v[1:])
	if k <= 0 {
		return nil, false
	}
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	in.src.Reset(v[1+k:])
	in.zr.(flate.Resetter).Reset(&in.src, nil)
	body = make([]byte, n)
	if _, err := io.ReadFull(in.zr, body); err != nil {
		return nil, false
	}
	return body, true
}

// cacheGet returns the response cached under fp, inflated.
func (s *Server) cacheGet(fp Fingerprint) ([]byte, bool) {
	v, hit := s.cache.Get(fp)
	if !hit {
		return nil, false
	}
	return inflateEntry(v)
}

// cachePut caches body under fp, compressed when it is large.
func (s *Server) cachePut(fp Fingerprint, body []byte) {
	s.cache.Put(fp, deflateEntry(body))
}
