package expt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"ftsched/internal/par"
)

// ErrCheckpointMismatch is returned when a checkpoint file was produced by a
// different campaign spec than the one being resumed.
var ErrCheckpointMismatch = errors.New("expt: checkpoint belongs to a different campaign")

// EngineOptions configures one RunCampaign invocation. The zero value runs
// with GOMAXPROCS workers and no checkpointing.
type EngineOptions struct {
	// Workers is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	// The aggregated result is identical for every worker count.
	Workers int
	// Checkpoint, when non-empty, streams every completed cell to this
	// JSONL file, so an interrupted campaign can be resumed.
	Checkpoint string
	// Resume loads previously completed cells from Checkpoint (which must
	// exist and match the campaign's fingerprint) and only executes the
	// remainder.
	Resume bool
	// Progress, when non-nil, is called after every completed cell with
	// the running completion count and the grid size. Calls are serialized.
	Progress func(done, total int)
}

// CampaignResult is a fully executed campaign: the spec plus one result per
// cell, sorted by cell index.
type CampaignResult struct {
	Campaign Campaign
	Cells    []CellResult
}

// Fingerprint returns a stable hash of the campaign spec, used to guard
// checkpoint resume against spec drift.
func (c Campaign) Fingerprint() string {
	blob, err := json.Marshal(c)
	if err != nil {
		// Campaign is a plain data struct; Marshal cannot fail on it.
		panic(err)
	}
	h := fnv.New64a()
	h.Write(blob)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkpointHeader is the first line of a checkpoint file.
type checkpointHeader struct {
	Version     int    `json:"v"`
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
}

// LoadCheckpoint reads a campaign checkpoint, returning the completed cell
// results keyed by index. A truncated trailing line (interrupted mid-write)
// is tolerated; any other malformed content is an error.
func LoadCheckpoint(r io.Reader, c Campaign) (map[int]CellResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("expt: empty checkpoint")
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("expt: malformed checkpoint header: %w", err)
	}
	if hdr.Version != 1 {
		return nil, fmt.Errorf("expt: unsupported checkpoint version %d (want 1)", hdr.Version)
	}
	if hdr.Fingerprint != c.Fingerprint() {
		return nil, fmt.Errorf("%w: checkpoint %q fingerprint %s, campaign %q fingerprint %s",
			ErrCheckpointMismatch, hdr.Name, hdr.Fingerprint, c.Name, c.Fingerprint())
	}
	total := c.NumCells()
	done := make(map[int]CellResult)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var res CellResult
		if err := json.Unmarshal(line, &res); err != nil {
			// A torn final line is the expected shape of an interrupt;
			// losing that one cell is fine — it will be recomputed. A
			// malformed line in the middle, or a scanner failure on the
			// lookahead, is real corruption and gets its own error.
			if sc.Scan() {
				return nil, fmt.Errorf("expt: malformed checkpoint line: %w", err)
			}
			if serr := sc.Err(); serr != nil {
				return nil, fmt.Errorf("expt: reading checkpoint: %w", serr)
			}
			break
		}
		if res.Index < 0 || res.Index >= total {
			return nil, fmt.Errorf("expt: checkpoint cell index %d outside grid of %d", res.Index, total)
		}
		done[res.Index] = res
	}
	return done, sc.Err()
}

// checkpointWriter appends completed cells to the checkpoint file, one JSON
// line per cell, flushing after every line so an interrupt loses at most the
// cell being written. It starts on a temporary sibling file and atomically
// renames over the target once the preamble (header plus any resumed cells)
// is durable, so a failure while rewriting a resumed checkpoint never
// destroys the progress already on disk.
type checkpointWriter struct {
	f         *os.File
	bw        *bufio.Writer
	tmp, path string // tmp is empty once promoted
}

func newCheckpointWriter(path string, c Campaign) (*checkpointWriter, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := &checkpointWriter{f: f, bw: bufio.NewWriter(f), tmp: tmp, path: path}
	hdr := checkpointHeader{Version: 1, Name: c.Name, Fingerprint: c.Fingerprint(), Cells: c.NumCells()}
	if err := w.writeJSON(hdr); err != nil {
		w.discard()
		return nil, err
	}
	return w, nil
}

// promote renames the temporary file onto the target path, syncing first so
// a power failure after the rename cannot surface an empty file where a
// complete checkpoint used to be. The open file descriptor tracks the inode
// across the rename, so subsequent appends land in the promoted file.
func (w *checkpointWriter) promote() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		return err
	}
	w.tmp = ""
	return nil
}

// discard abandons the writer, removing the temporary file if the target
// was never promoted.
func (w *checkpointWriter) discard() {
	w.f.Close()
	if w.tmp != "" {
		os.Remove(w.tmp)
	}
}

func (w *checkpointWriter) writeJSON(v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.bw.Write(blob); err != nil {
		return err
	}
	if err := w.bw.WriteByte('\n'); err != nil {
		return err
	}
	return w.bw.Flush()
}

func (w *checkpointWriter) Close() error {
	if w.tmp != "" {
		// Never promoted: the run failed before the preamble was complete;
		// keep the original checkpoint and drop the partial rewrite.
		w.discard()
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// RunCampaign executes every cell of the campaign on par.For's workers and
// returns the index-sorted results. Because each cell is seeded from its own
// coordinates and aggregation happens in index order, the output is
// byte-for-byte identical for any worker count, and a resumed campaign is
// indistinguishable from an uninterrupted one.
func RunCampaign(c Campaign, opt EngineOptions) (*CampaignResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	done := make(map[int]CellResult)
	if opt.Resume {
		if opt.Checkpoint == "" {
			return nil, fmt.Errorf("expt: -resume needs a checkpoint path")
		}
		f, err := os.Open(opt.Checkpoint)
		if err != nil {
			return nil, err
		}
		done, err = LoadCheckpoint(f, c)
		f.Close()
		if err != nil {
			return nil, err
		}
	}

	var ckpt *checkpointWriter
	if opt.Checkpoint != "" {
		if !opt.Resume {
			// Refuse to clobber prior progress: a user rerunning after an
			// interrupt but forgetting -resume would otherwise wipe the
			// checkpoint at t=0.
			if _, err := os.Stat(opt.Checkpoint); err == nil {
				return nil, fmt.Errorf("expt: checkpoint %s already exists; pass Resume (-resume) to continue it or remove the file to start over", opt.Checkpoint)
			} else if !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
		}
		// The file is rewritten from the loaded cells rather than appended
		// to: an interrupt can leave a torn half-line at the tail, and
		// appending after one would corrupt the next resume. The rewrite
		// happens on a temp file promoted by an atomic rename, so the
		// previous checkpoint survives any failure before the new one
		// holds everything it held.
		var err error
		ckpt, err = newCheckpointWriter(opt.Checkpoint, c)
		if err != nil {
			return nil, err
		}
		defer ckpt.Close()
		for _, cell := range c.Cells() {
			if res, ok := done[cell.Index]; ok {
				if err := ckpt.writeJSON(res); err != nil {
					return nil, err
				}
			}
		}
		if err := ckpt.promote(); err != nil {
			return nil, err
		}
	}

	// The unit of work is one cell. Cells sharing an instance are
	// consecutive in the canonical order, so each run of them gets one slot:
	// the first of its cells to start prepares the instance, the others wait
	// on the slot's once, and the last to finish drops the prepared value.
	pending := slices.DeleteFunc(c.Cells(), func(cell Cell) bool {
		_, ok := done[cell.Index]
		return ok
	})
	group := make([]int, len(pending))
	for i := 1; i < len(pending); i++ {
		group[i] = group[i-1]
		if !pending[i].sameInstance(pending[i-1]) {
			group[i]++
		}
	}
	type slot struct {
		once sync.Once
		p    *prepared
		err  error
		left atomic.Int32
	}
	var slots []slot
	if len(pending) > 0 {
		slots = make([]slot, group[len(group)-1]+1)
	}
	for _, g := range group {
		slots[g].left.Add(1)
	}

	total := c.NumCells()
	rngs := make([]*rand.Rand, par.Workers(opt.Workers, len(pending)))
	for w := range rngs {
		rngs[w] = newRng()
	}
	var mu sync.Mutex
	// record serializes the checkpoint line, done and Progress.
	record := func(res CellResult) error {
		mu.Lock()
		defer mu.Unlock()
		if ckpt != nil {
			if err := ckpt.writeJSON(res); err != nil {
				return fmt.Errorf("expt: writing checkpoint: %w", err)
			}
		}
		done[res.Index] = res
		if opt.Progress != nil {
			opt.Progress(len(done), total)
		}
		return nil
	}
	err := par.For(len(rngs), len(pending), func(w, i int) error {
		cell, rng, s := pending[i], rngs[w], &slots[group[i]]
		s.once.Do(func() { s.p, s.err = c.prepare(cell, rng) })
		if s.err != nil {
			return s.err
		}
		res, err := c.runPrepared(cell, s.p, rng)
		if s.left.Add(-1) == 0 {
			s.p = nil
		}
		if err != nil {
			return err
		}
		return record(res)
	})
	if err != nil {
		return nil, err
	}

	cells := make([]CellResult, total)
	for i := range cells {
		cells[i] = done[i]
	}
	return &CampaignResult{Campaign: c, Cells: cells}, nil
}
