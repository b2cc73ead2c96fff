package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ftsched/internal/service"
)

// syncBuffer is a bytes.Buffer the serving goroutine writes while the test
// reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

const scheduleBody = `{"graph":{"name":"p","tasks":2,"edges":[{"src":0,"dst":1,"volume":1}]},
	"platform":{"procs":2,"delay":[[0,0.5],[0.5,0]]},
	"costs":{"cost":[[1,2],[2,1]]},"scheduler":"ftsa","epsilon":1}`

var boundAddr = regexp.MustCompile(`(?:listening on|shards on) (127\.0\.0\.1:\d+)`)

// TestServeAndShutdown drives the binary's code path end to end: listen on
// an ephemeral port, answer one /schedule, and drain on cancel with exit 0.
func TestServeAndShutdown(t *testing.T) {
	for _, tc := range []struct {
		name, args, banner string
	}{
		{"standalone", "-workers 1", "listening on 127.0.0.1:"},
		{"coordinator", "-coordinator -shards 2 -workers 1", "coordinating 2 shards on 127.0.0.1:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var stdout, stderr syncBuffer
			code := make(chan int, 1)
			go func() {
				code <- run(ctx, append(strings.Fields(tc.args), "-addr", "127.0.0.1:0"), &stdout, &stderr)
			}()

			var addr string
			for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(5 * time.Millisecond) {
				if m := boundAddr.FindStringSubmatch(stderr.String()); m != nil {
					addr = m[1]
				} else if time.Now().After(deadline) {
					t.Fatalf("no startup line naming the bound address; stderr:\n%s", stderr.String())
				}
			}
			if !strings.Contains(stderr.String(), tc.banner) {
				t.Fatalf("startup line: %q, want %q", stderr.String(), tc.banner)
			}

			resp, err := http.Post("http://"+addr+"/schedule", "application/json", strings.NewReader(scheduleBody))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var out service.ScheduleResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil || out.Scheduler != "FTSA" || out.Tasks != 2 {
				t.Fatalf("/schedule: %d %s", resp.StatusCode, body)
			}

			cancel()
			select {
			case c := <-code:
				if c != 0 {
					t.Fatalf("exit %d after cancel, want 0; stderr:\n%s", c, stderr.String())
				}
			case <-time.After(30 * time.Second):
				t.Fatal("run did not return after cancel")
			}
			if !strings.Contains(stderr.String(), "shutting down") {
				t.Fatalf("no shutdown line; stderr:\n%s", stderr.String())
			}
			if stdout.String() != "" {
				t.Fatalf("stdout: %q, want nothing", stdout.String())
			}
		})
	}
}

// TestRejectedInvocations: a flag error exits 2 before anything listens
// (the context is already cancelled, so an invocation that wrongly starts
// serving returns 0 at once and fails the table), and a listen failure
// exits 1.
func TestRejectedInvocations(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		args string
		code int
		want string // must appear on stderr
	}{
		{"-bogus", 2, "flag provided but not defined: -bogus"},
		{"extra", 2, `unexpected argument "extra"`},
		{"-coordinator -shards 0", 2, "need -shards >= 1, got 0"},
		{"-coordinator -shard-urls localhost:8080", 2, `-shard-urls entry "localhost:8080"`},
		{"-coordinator -shard-urls w1:8080", 2, `-shard-urls entry "w1:8080"`},
		{"-coordinator -shard-urls http//w1:8080", 2, `-shard-urls entry "http//w1:8080"`},
		{"-coordinator -shard-urls ftp://w1", 2, `-shard-urls entry "ftp://w1"`},
		{"-coordinator -shard-urls http://w1:8080,", 2, `-shard-urls entry ""`},
		{"-coordinator -shard-urls http://", 2, `-shard-urls entry "http://"`},
		{"-addr nonsense", 1, "nonsense"},
	} {
		var stdout, stderr syncBuffer
		code := run(ctx, strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("ftserved %s: exit %d, stderr %q; want exit %d naming %q", tc.args, code, stderr.String(), tc.code, tc.want)
		}
		if stdout.String() != "" {
			t.Errorf("ftserved %s: rejected run wrote to stdout: %q", tc.args, stdout.String())
		}
	}
}
