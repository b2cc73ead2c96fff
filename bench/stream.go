package main

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"ftsched/internal/load"
)

// plan is one synthesized request with its instance payload factored out: a
// paper-sized body is about 85 KB, of which everything but the last hundred
// bytes is the instance, identical for every request on the same rank.
type plan struct {
	Path     string
	Endpoint string
	Rank     int
	// Tail is the body after the instance: scheduler, epsilon, seeds,
	// scenario and so on, through the closing brace.
	Tail []byte
	// Patch is the offset in Tail of the digits body overwrites with the
	// stream index; -1 when the stream repeats keys.
	Patch int
}

// patchDigits is the width of the overwritten field: uniqueSeed without its
// leading 1.
const patchDigits = 15

// stream is a workload's request stream, built before any clock starts.
// Request i is plans[i mod len(plans)] on its rank's instance; a unique
// stream additionally writes i into the tail, so no two requests of a run
// are equal and none can hit the cache.
type stream struct {
	prefix [][]byte // per corpus instance: the body up to and including the costs object
	// inst maps a zipf rank to the corpus instance its requests carry.
	// Popularity falls with an instance's distance from a mid-sized body: the
	// hot ranks are mid-sized on every seed and the largest and smallest
	// graphs share the tail. Left in corpus order, whether rank
	// 0 drew 100 or 150 tasks moved a stream's median latency by 20% from
	// seed to seed, more than any bound the benchmark sets.
	inst    []int
	plans   []plan
	maxBody int
}

// instanceEnd is where every request body's instance payload ends: the cost
// matrix closes the costs object, and a field follows.
var instanceEnd = []byte("]]},")

// tasksField is how every instance payload announces its size.
var tasksField = regexp.MustCompile(`"tasks":(\d+)`)

// buildStream synthesizes requests 0..n-1 on par goroutines (the synthesizer
// is a pure function of the index) and splits each into prefix and tail.
// unique names the field carrying uniqueSeed, or is empty.
func buildStream(sy *load.Synthesizer, spec load.CorpusSpec, n int, unique string, par int) (*stream, error) {
	st := &stream{prefix: make([][]byte, spec.Size), inst: make([]int, spec.Size), plans: make([]plan, n)}
	var marker []byte
	if unique != "" {
		marker = []byte(`"` + unique + `":` + strconv.FormatInt(uniqueSeed, 10))
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += par {
				req, err := sy.Request(uint64(i))
				if err != nil {
					fail(err)
					return
				}
				cut := bytes.LastIndex(req.Body, instanceEnd)
				if cut < 0 {
					fail(fmt.Errorf("request %d: no instance payload found in body", i))
					return
				}
				cut += len(instanceEnd) - 1 // the comma starts the tail
				p := plan{Path: req.Path, Endpoint: req.Endpoint, Rank: req.Rank,
					Tail: bytes.Clone(req.Body[cut:]), Patch: -1}
				if marker != nil {
					at := bytes.Index(p.Tail, marker)
					if at < 0 {
						fail(fmt.Errorf("request %d: field %q does not carry the unique placeholder", i, unique))
						return
					}
					p.Patch = at + len(marker) - patchDigits
				}
				st.plans[i] = p
				mu.Lock()
				switch have := st.prefix[req.Rank]; {
				case have == nil:
					st.prefix[req.Rank] = bytes.Clone(req.Body[:cut])
				case !bytes.Equal(have, req.Body[:cut]):
					if firstErr == nil {
						firstErr = fmt.Errorf("request %d: rank %d instance bytes differ between requests", i, req.Rank)
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// Deal the instances the stream drew to the ranks it drew, nearest the
	// middle first. The middle is a body of the corpus's mean bytes per task
	// at the middle of the task range, which barely moves with the seed.
	var drawn []int
	perTask := 0.0
	for r, prefix := range st.prefix {
		if prefix == nil {
			continue
		}
		m := tasksField.FindSubmatch(prefix)
		if m == nil {
			return nil, fmt.Errorf("rank %d: instance payload has no tasks field", r)
		}
		tasks, _ := strconv.Atoi(string(m[1]))
		perTask += float64(len(prefix)) / float64(tasks)
		drawn = append(drawn, r)
	}
	middle := perTask / float64(len(drawn)) * float64(spec.TasksMin+spec.TasksMax) / 2
	off := func(r int) float64 { return math.Abs(float64(len(st.prefix[r])) - middle) }
	byOffset := append([]int(nil), drawn...)
	sort.SliceStable(byOffset, func(a, b int) bool { return off(byOffset[a]) < off(byOffset[b]) })
	for k, r := range drawn {
		st.inst[r] = byOffset[k]
	}
	for i := range st.plans {
		p := &st.plans[i]
		if n := len(st.prefix[st.inst[p.Rank]]) + len(p.Tail); n > st.maxBody {
			st.maxBody = n
		}
	}
	return st, nil
}

func (st *stream) plan(i uint64) *plan { return &st.plans[i%uint64(len(st.plans))] }

// body assembles request i into buf (which must have capacity maxBody) and
// returns its path, its bytes, and its key: equal keys mean equal bodies.
// The copy is the only work done per request on the sending side; JSON is
// never encoded inside a timed loop.
func (st *stream) body(i uint64, buf []byte) (path string, body []byte, key string) {
	p := st.plan(i)
	prefix := st.prefix[st.inst[p.Rank]]
	body = append(append(buf[:0], prefix...), p.Tail...)
	tail := body[len(prefix):]
	if p.Patch >= 0 {
		digits := tail[p.Patch : p.Patch+patchDigits]
		for k, v := patchDigits-1, i; k >= 0; k, v = k-1, v/10 {
			digits[k] = byte('0' + v%10)
		}
	}
	return p.Path, body, strconv.Itoa(p.Rank) + string(tail)
}

// distinct returns the index of the first request of each distinct body
// among requests 0..n-1, in stream order.
func (st *stream) distinct(n int) []uint64 {
	seen := make(map[string]bool)
	buf := make([]byte, 0, st.maxBody)
	var first []uint64
	for i := 0; i < n; i++ {
		_, _, key := st.body(uint64(i), buf)
		if !seen[key] {
			seen[key] = true
			first = append(first, uint64(i))
		}
	}
	return first
}
