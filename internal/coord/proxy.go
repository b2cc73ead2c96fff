package coord

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// Proxy adapts a remote worker (a standalone ftserved reachable over HTTP)
// to the http.Handler interface the Coordinator routes to, so one deployment
// can mix in-process shards with workers on other machines. The request is
// replayed verbatim against base+path; status, headers and body stream back
// unchanged — the coordinator cannot tell a Proxy from a local shard.
type Proxy struct {
	// Base is the worker root, e.g. "http://worker-3:8080".
	Base string
	// Client defaults to http.DefaultClient.
	Client *http.Client
}

// closeSignal tells when the transport has closed a request body. A
// RoundTripper may still be reading the body after the response has
// arrived, and an http.Handler must be done with r.Body when it returns —
// the coordinator recycles the buffer behind it.
type closeSignal struct {
	io.Reader
	once   sync.Once
	closed chan struct{}
}

func (b *closeSignal) Close() error {
	b.once.Do(func() { close(b.closed) })
	return nil
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	client := p.Client
	if client == nil {
		client = http.DefaultClient
	}
	url := strings.TrimSuffix(p.Base, "/") + r.URL.Path
	body := &closeSignal{Reader: r.Body, closed: make(chan struct{})}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, body)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadGateway)
		return
	}
	// NewRequest cannot size a body of a type it does not know, and an
	// unsized body goes out chunked.
	req.ContentLength = r.ContentLength
	req.Header = r.Header.Clone()
	// The client closes the body on every path, errors included.
	defer func() { <-body.closed }()
	resp, err := client.Do(req)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for name, values := range resp.Header {
		for _, v := range values {
			w.Header().Add(name, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
