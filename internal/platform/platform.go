package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"ftsched/internal/wire"
)

// ProcID identifies a processor, a dense integer in [0, NumProcs).
type ProcID int

// Platform holds the communication side of the model: the number of
// processors and the unit-length-data delay between every ordered pair.
type Platform struct {
	m     int
	delay [][]float64 // delay[k][h] = d(Pk,Ph); delay[k][k] = 0
	flat  []float64   // backing of a decoded delay matrix, kept for the next decode
}

// Common platform errors.
var (
	ErrBadSize   = errors.New("platform: non-positive processor count")
	ErrBadDelay  = errors.New("platform: invalid delay")
	ErrDimension = errors.New("platform: dimension mismatch")
)

// finiteNonNeg reports whether x is a finite non-negative number. A "x < 0"
// check lets NaN through (every comparison with it is false), and an
// infinite delay or cost turns into NaN as soon as it meets a zero (∞·0,
// ∞−∞); the schedulers' built-in min/max folds are exact only on numbers
// (see package kernel), so the constructors refuse both.
func finiteNonNeg(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// NewFromDelays builds a platform from an explicit delay matrix. The diagonal
// must be zero and all entries finite and non-negative.
func NewFromDelays(delay [][]float64) (*Platform, error) {
	m := len(delay)
	if m == 0 {
		return nil, ErrBadSize
	}
	p := &Platform{m: m, delay: make([][]float64, m)}
	for k := range delay {
		if len(delay[k]) != m {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrDimension, k, len(delay[k]), m)
		}
		for h, d := range delay[k] {
			if !finiteNonNeg(d) {
				return nil, fmt.Errorf("%w: d(P%d,P%d)=%g", ErrBadDelay, k, h, d)
			}
			if h == k && d != 0 {
				return nil, fmt.Errorf("%w: d(P%d,P%d)=%g, diagonal must be 0", ErrBadDelay, k, h, d)
			}
		}
		p.delay[k] = append([]float64(nil), delay[k]...)
	}
	return p, nil
}

// NewRandom draws every inter-processor unit delay uniformly from
// [minDelay, maxDelay), the paper's communication-heterogeneity model
// (Section 6 uses [0.5, 1]).
func NewRandom(rng *rand.Rand, m int, minDelay, maxDelay float64) (*Platform, error) {
	if m <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadSize, m)
	}
	if !finiteNonNeg(minDelay) || !finiteNonNeg(maxDelay) || maxDelay < minDelay {
		return nil, fmt.Errorf("%w: range [%g,%g)", ErrBadDelay, minDelay, maxDelay)
	}
	p := &Platform{m: m, delay: make([][]float64, m)}
	for k := 0; k < m; k++ {
		p.delay[k] = make([]float64, m)
	}
	// Links are symmetric: one delay per unordered pair.
	for k := 0; k < m; k++ {
		for h := k + 1; h < m; h++ {
			d := minDelay + rng.Float64()*(maxDelay-minDelay)
			p.delay[k][h] = d
			p.delay[h][k] = d
		}
	}
	return p, nil
}

// NumProcs returns m.
func (p *Platform) NumProcs() int { return p.m }

// Valid reports whether k names a processor of p.
func (p *Platform) Valid(k ProcID) bool { return k >= 0 && int(k) < p.m }

// Delay returns d(Pk,Ph), the time to ship one unit of data from Pk to Ph.
// It is 0 when k == h.
func (p *Platform) Delay(k, h ProcID) float64 { return p.delay[k][h] }

// DelayRow returns d(Pk,·), the delays from Pk to every processor, indexed by
// destination. The slice is the platform's own storage: read-only.
func (p *Platform) DelayRow(k ProcID) []float64 { return p.delay[k] }

// MaxDelayFrom returns max over h of d(Pk,Ph) — the worst-case outgoing
// delay used by the dynamic top level (Section 4.1).
func (p *Platform) MaxDelayFrom(k ProcID) float64 {
	best := 0.0
	for h := 0; h < p.m; h++ {
		if p.delay[k][h] > best {
			best = p.delay[k][h]
		}
	}
	return best
}

// MeanDelay returns d̄, the average unit delay over ordered pairs of distinct
// processors — the averaging the paper uses for W̄(ti,tj). For m == 1 it
// returns 0.
func (p *Platform) MeanDelay() float64 {
	if p.m == 1 {
		return 0
	}
	sum := 0.0
	for k := 0; k < p.m; k++ {
		for h := 0; h < p.m; h++ {
			if h != k {
				sum += p.delay[k][h]
			}
		}
	}
	return sum / float64(p.m*(p.m-1))
}

// MeanDelayFastestLinks returns the average unit delay over the n fastest
// links in the system, used by the deadline assignment of Section 4.3.
// n is clamped to the number of distinct ordered pairs.
func (p *Platform) MeanDelayFastestLinks(n int) float64 {
	if p.m == 1 || n <= 0 {
		return 0
	}
	all := make([]float64, 0, p.m*(p.m-1))
	for k := 0; k < p.m; k++ {
		for h := 0; h < p.m; h++ {
			if h != k {
				all = append(all, p.delay[k][h])
			}
		}
	}
	sort.Float64s(all)
	if n > len(all) {
		n = len(all)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += all[i]
	}
	return sum / float64(n)
}

// MaxDelay returns the largest unit delay in the system (slowest link),
// used when computing granularity (slowest communication time of an edge).
func (p *Platform) MaxDelay() float64 {
	best := 0.0
	for k := 0; k < p.m; k++ {
		for h := 0; h < p.m; h++ {
			if p.delay[k][h] > best {
				best = p.delay[k][h]
			}
		}
	}
	return best
}

// platformJSON is the serialized form.
type platformJSON struct {
	Procs int         `json:"procs"`
	Delay [][]float64 `json:"delay"`
}

// MarshalJSON implements json.Marshaler.
func (p *Platform) MarshalJSON() ([]byte, error) {
	return json.Marshal(platformJSON{Procs: p.m, Delay: p.delay})
}

// UnmarshalJSON implements json.Unmarshaler through ScanJSON.
func (p *Platform) UnmarshalJSON(data []byte) error { return wire.Unmarshal(data, p.ScanJSON) }

var platformFields = wire.Fields{"procs", "delay"}

// ScanJSON decodes and validates the platform value under s's cursor.
// Unknown members are skipped and null stands for the empty object. It
// decodes into the receiver's existing matrix storage, so a pooled platform
// decoding same-sized payloads back to back stops allocating. That storage is
// capacity only: a document without a delay member has an empty matrix, never
// the previous one. On any error the receiver is left empty.
func (p *Platform) ScanJSON(s *wire.Scanner) error {
	procs, delay := 0, p.delay[:0]
	p.m, p.delay = 0, nil
	err := s.Object(func(key []byte) error {
		switch platformFields.Index(key) {
		case 0:
			return s.Int(&procs)
		case 1:
			var err error
			delay, p.flat, err = scanMatrix(s, delay, p.flat)
			return err
		}
		return s.Skip()
	})
	if err != nil {
		return fmt.Errorf("platform: decoding: %w", err)
	}
	m := len(delay)
	if m == 0 {
		return ErrBadSize
	}
	for k := range delay {
		if len(delay[k]) != m {
			return fmt.Errorf("%w: row %d has %d entries, want %d", ErrDimension, k, len(delay[k]), m)
		}
		for h, d := range delay[k] {
			if d < 0 {
				return fmt.Errorf("%w: d(P%d,P%d)=%g", ErrBadDelay, k, h, d)
			}
			if h == k && d != 0 {
				return fmt.Errorf("%w: d(P%d,P%d)=%g, diagonal must be 0", ErrBadDelay, k, h, d)
			}
		}
	}
	if procs != m {
		return fmt.Errorf("%w: procs=%d but delay matrix is %dx%d", ErrDimension, procs, m, m)
	}
	p.m, p.delay = m, delay
	return nil
}

// scanMatrix reads an array of float rows (a delay or cost matrix) into the
// storage of a previous decode: every entry is appended to one flat block
// and the rows are carved out of it afterwards, so a matrix costs a handful
// of allocations when the storage is new and none when it is warm. A null
// matrix or row is empty, a null entry 0. Each call starts from nothing, so
// a repeated key is decoded afresh, never merged.
func scanMatrix(s *wire.Scanner, rows [][]float64, flat []float64) ([][]float64, []float64, error) {
	rows, flat = rows[:0], flat[:0]
	err := s.Array(func() error {
		start := len(flat)
		err := s.Array(func() error {
			flat = append(flat, 0)
			return s.Float(&flat[len(flat)-1])
		})
		// flat may still move; only this row's length is final.
		rows = append(rows, flat[start:])
		return err
	})
	off := 0
	for i, row := range rows {
		rows[i] = flat[off : off+len(row) : off+len(row)]
		off += len(row)
	}
	return rows, flat, err
}

// WriteTo serializes p as indented JSON.
func (p *Platform) WriteTo(w io.Writer) (int64, error) {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// Read decodes a platform from JSON.
func Read(r io.Reader) (*Platform, error) {
	var p Platform
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, err
	}
	return &p, nil
}
