package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
)

// ProcID identifies a processor, a dense integer in [0, NumProcs).
type ProcID int

// Platform holds the communication side of the model: the number of
// processors and the unit-length-data delay between every ordered pair.
type Platform struct {
	m     int
	delay [][]float64 // delay[k][h] = d(Pk,Ph); delay[k][k] = 0
}

// Common platform errors.
var (
	ErrBadSize   = errors.New("platform: non-positive processor count")
	ErrBadDelay  = errors.New("platform: invalid delay")
	ErrDimension = errors.New("platform: dimension mismatch")
)

// New creates a platform with m processors and all inter-processor unit
// delays set to delay (intra-processor delays are 0).
func New(m int, delay float64) (*Platform, error) {
	if m <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadSize, m)
	}
	if delay < 0 {
		return nil, fmt.Errorf("%w: %g", ErrBadDelay, delay)
	}
	p := &Platform{m: m, delay: make([][]float64, m)}
	for k := 0; k < m; k++ {
		p.delay[k] = make([]float64, m)
		for h := 0; h < m; h++ {
			if h != k {
				p.delay[k][h] = delay
			}
		}
	}
	return p, nil
}

// NewFromDelays builds a platform from an explicit delay matrix. The diagonal
// must be zero and all entries non-negative.
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
			if d < 0 {
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
	if minDelay < 0 || maxDelay < minDelay {
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

// UnmarshalJSON implements json.Unmarshaler with validation. It decodes into
// the receiver's existing matrix storage (rows and backing are reused when
// capacities suffice), so a pooled platform decoding same-sized payloads back
// to back stops allocating. On any error the receiver is left empty.
func (p *Platform) UnmarshalJSON(data []byte) error {
	in := platformJSON{Delay: recycleRows(p.delay)}
	p.m, p.delay = 0, nil
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("platform: decoding: %w", err)
	}
	m := len(in.Delay)
	if m == 0 {
		return ErrBadSize
	}
	for k := range in.Delay {
		if len(in.Delay[k]) != m {
			return fmt.Errorf("%w: row %d has %d entries, want %d", ErrDimension, k, len(in.Delay[k]), m)
		}
		for h, d := range in.Delay[k] {
			if d < 0 {
				return fmt.Errorf("%w: d(P%d,P%d)=%g", ErrBadDelay, k, h, d)
			}
			if h == k && d != 0 {
				return fmt.Errorf("%w: d(P%d,P%d)=%g, diagonal must be 0", ErrBadDelay, k, h, d)
			}
		}
	}
	if in.Procs != m {
		return fmt.Errorf("%w: procs=%d but delay matrix is %dx%d", ErrDimension, in.Procs, m, m)
	}
	p.m, p.delay = m, in.Delay
	return nil
}

// recycleRows empties a matrix for json.Unmarshal to decode into.
// encoding/json reuses the slice elements within capacity as they are, so
// without this a null row or a null entry would keep the value the previous
// payload left there, and one body could decode to two different matrices.
func recycleRows(rows [][]float64) [][]float64 {
	rows = rows[:cap(rows)]
	for i, row := range rows {
		row = row[:cap(row)]
		clear(row)
		rows[i] = row[:0]
	}
	return rows[:0]
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
