package service

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sync"
)

// BodyDigest is a 128-bit keyed digest of a request body's raw bytes. The
// key is drawn when the process starts, so a digest means nothing outside
// the process: it is never a cache key, a route or an id, only the key of a
// front index (NewFrontIndex) that remembers what a body decoded to.
type BodyDigest [2]uint64

// bodySeeds key the two 64-bit halves of a BodyDigest. Every server and
// coordinator of one process shares them, which is what lets a door pass the
// digest it took to an in-process shard.
var bodySeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

func digestBody(path string, body []byte) BodyDigest {
	// The path separates one body POSTed to two endpoints. XOR-ing its hash
	// into one half is enough: the halves are independently keyed, so two
	// (path, body) pairs still collide only on a 128-bit coincidence.
	return BodyDigest{
		maphash.Bytes(bodySeeds[0], body) ^ maphash.String(bodySeeds[0], path),
		maphash.Bytes(bodySeeds[1], body),
	}
}

// maxPooledBody bounds both the buffer a declared Content-Length may
// pre-size (the header is untrusted) and the buffers the pool keeps: one
// 32 MiB upload must not pin 32 MiB for the life of the process.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// acquireBody reads r to EOF into a pooled buffer, pre-sized from the
// request's declared Content-Length so a body is read in one pass without
// regrowing. The buffer is returned even on a read error — it then holds the
// bytes read before the error — and must go back through ReleaseBody once
// nothing references its bytes.
func acquireBody(r io.Reader, contentLength int64) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	if n := min(contentLength, maxPooledBody); n > 0 {
		// ReadFrom wants bytes.MinRead spare bytes to discover EOF.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf, err
}

// ReadBody buffers r's body, bounded by limit, in a pooled buffer the caller
// returns with ReleaseBody. A body that cannot be read whole is answered from
// the read error alone — 413 past the limit, 400 otherwise — whatever the
// bytes before the error were: ReadBody then returns no buffer, the status
// and an error that is safe to echo.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) (*bytes.Buffer, int, error) {
	buf, err := acquireBody(http.MaxBytesReader(w, r.Body, limit), r.ContentLength)
	if err == nil {
		return buf, http.StatusOK, nil
	}
	ReleaseBody(buf)
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	return nil, status, fmt.Errorf("decoding request: %w", err)
}

// ReleaseBody recycles a buffer obtained from acquireBody.
func ReleaseBody(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledBody+bytes.MinRead {
		return
	}
	buf.Reset()
	bodyPool.Put(buf)
}
