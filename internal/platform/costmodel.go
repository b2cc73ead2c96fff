package platform

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"slices"

	"ftsched/internal/dag"
	"ftsched/internal/wire"
)

// CostModel is the computational-heterogeneity function E: V × P → R+ of the
// paper: cost[t][k] is the execution time of task t on processor Pk.
type CostModel struct {
	cost [][]float64 // [task][proc]
	flat []float64   // backing of a decoded matrix, kept for the next decode
}

// NewCostModel allocates a v-tasks × m-procs cost matrix initialized to zero.
func NewCostModel(v, m int) (*CostModel, error) {
	if v < 0 || m <= 0 {
		return nil, fmt.Errorf("platform: invalid cost-model dimensions %dx%d", v, m)
	}
	cm := &CostModel{cost: make([][]float64, v)}
	for t := range cm.cost {
		cm.cost[t] = make([]float64, m)
	}
	return cm, nil
}

// NewCostModelFromMatrix wraps an explicit matrix (copied; rows must be equal
// length and entries finite and non-negative).
func NewCostModelFromMatrix(cost [][]float64) (*CostModel, error) {
	if len(cost) == 0 {
		return nil, fmt.Errorf("platform: empty cost matrix")
	}
	m := len(cost[0])
	if m == 0 {
		return nil, fmt.Errorf("platform: cost matrix has no processors")
	}
	cm := &CostModel{cost: make([][]float64, len(cost))}
	for t := range cost {
		if len(cost[t]) != m {
			return nil, fmt.Errorf("%w: cost row %d has %d entries, want %d", ErrDimension, t, len(cost[t]), m)
		}
		for k, c := range cost[t] {
			if !finiteNonNeg(c) {
				return nil, fmt.Errorf("platform: cost E(%d,P%d)=%g is negative or not finite", t, k, c)
			}
		}
		cm.cost[t] = append([]float64(nil), cost[t]...)
	}
	return cm, nil
}

// NewRandomCostModel draws E(t,Pk) uniformly from [minCost, maxCost) for
// every task/processor pair — the unrelated-machines model used by the
// paper's experiments.
func NewRandomCostModel(rng *rand.Rand, v, m int, minCost, maxCost float64) (*CostModel, error) {
	if !finiteNonNeg(minCost) || !finiteNonNeg(maxCost) || maxCost < minCost {
		return nil, fmt.Errorf("platform: invalid cost range [%g,%g)", minCost, maxCost)
	}
	cm, err := NewCostModel(v, m)
	if err != nil {
		return nil, err
	}
	for t := range cm.cost {
		for k := range cm.cost[t] {
			cm.cost[t][k] = minCost + rng.Float64()*(maxCost-minCost)
		}
	}
	return cm, nil
}

// NumTasks returns the number of tasks covered by the model.
func (cm *CostModel) NumTasks() int { return len(cm.cost) }

// NumProcs returns the number of processors covered by the model.
func (cm *CostModel) NumProcs() int {
	if len(cm.cost) == 0 {
		return 0
	}
	return len(cm.cost[0])
}

// Cost returns E(t,Pk).
func (cm *CostModel) Cost(t dag.TaskID, k ProcID) float64 { return cm.cost[t][k] }

// Mean returns E̅(t) = (Σj E(t,Pj)) / m, the average execution time used by
// static bottom levels.
func (cm *CostModel) Mean(t dag.TaskID) float64 {
	row := cm.cost[t]
	sum := 0.0
	for _, c := range row {
		sum += c
	}
	return sum / float64(len(row))
}

// Max returns the slowest execution time of t over all processors, used by
// the granularity definition.
func (cm *CostModel) Max(t dag.TaskID) float64 {
	best := 0.0
	for _, c := range cm.cost[t] {
		if c > best {
			best = c
		}
	}
	return best
}

// Min returns the fastest execution time of t over all processors.
func (cm *CostModel) Min(t dag.TaskID) float64 {
	if len(cm.cost[t]) == 0 {
		return 0
	}
	best := cm.cost[t][0]
	for _, c := range cm.cost[t][1:] {
		if c < best {
			best = c
		}
	}
	return best
}

// MeanFastest returns the average execution time of t on the n fastest
// processors for t, the E̅(ti) of the deadline computation (Section 4.3,
// with n = ε+1).
func (cm *CostModel) MeanFastest(t dag.TaskID, n int) float64 {
	if n <= 0 {
		return 0
	}
	// The row is sorted in a copy on the stack up to 64 processors, so the
	// call allocates nothing on the platforms this system schedules.
	var buf [64]float64
	row := append(buf[:0], cm.cost[t]...)
	slices.Sort(row)
	n = min(n, len(row))
	sum := 0.0
	for _, c := range row[:n] {
		sum += c
	}
	return sum / float64(n)
}

// MeanOverTasks returns the mean of E̅(t) over all tasks: the platform-level
// average cost of one task, used to normalize latencies in the experiment
// harness.
func (cm *CostModel) MeanOverTasks() float64 {
	if len(cm.cost) == 0 {
		return 0
	}
	sum := 0.0
	for t := range cm.cost {
		sum += cm.Mean(dag.TaskID(t))
	}
	return sum / float64(len(cm.cost))
}

// Scale multiplies every execution cost by factor (finite, >= 0); used by
// the workload generator to hit a target granularity.
func (cm *CostModel) Scale(factor float64) error {
	if !finiteNonNeg(factor) {
		return fmt.Errorf("platform: scale factor %g is negative or not finite", factor)
	}
	// Checked before anything is written, so a refused factor leaves the
	// model as it was.
	for t := range cm.cost {
		for k, c := range cm.cost[t] {
			if !finiteNonNeg(c * factor) {
				return fmt.Errorf("platform: scaling E(%d,P%d)=%g by %g overflows", t, k, c, factor)
			}
		}
	}
	for t := range cm.cost {
		for k := range cm.cost[t] {
			cm.cost[t][k] *= factor
		}
	}
	return nil
}

// MarshalJSON implements json.Marshaler.
func (cm *CostModel) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Cost [][]float64 `json:"cost"`
	}{Cost: cm.cost})
}

// UnmarshalJSON implements json.Unmarshaler through ScanJSON.
func (cm *CostModel) UnmarshalJSON(data []byte) error { return wire.Unmarshal(data, cm.ScanJSON) }

var costFields = wire.Fields{"cost"}

// ScanJSON decodes and validates the cost-model value under s's cursor.
// Like Platform.ScanJSON it decodes into the receiver's existing matrix
// storage (capacity only — a document without a cost member has an empty
// matrix), so a pooled model decoding same-shaped payloads allocates nothing;
// on any error the receiver is left empty.
func (cm *CostModel) ScanJSON(s *wire.Scanner) error {
	cost := cm.cost[:0]
	cm.cost = nil
	err := s.Object(func(key []byte) error {
		if costFields.Index(key) != 0 {
			return s.Skip()
		}
		var err error
		cost, cm.flat, err = scanMatrix(s, cost, cm.flat)
		return err
	})
	if err != nil {
		return fmt.Errorf("platform: decoding cost model: %w", err)
	}
	if len(cost) == 0 {
		return fmt.Errorf("platform: empty cost matrix")
	}
	m := len(cost[0])
	if m == 0 {
		return fmt.Errorf("platform: cost matrix has no processors")
	}
	for t := range cost {
		if len(cost[t]) != m {
			return fmt.Errorf("%w: cost row %d has %d entries, want %d", ErrDimension, t, len(cost[t]), m)
		}
		for k, c := range cost[t] {
			if c < 0 {
				return fmt.Errorf("platform: negative cost E(%d,P%d)=%g", t, k, c)
			}
		}
	}
	cm.cost = cost
	return nil
}

// WriteTo serializes the model as indented JSON.
func (cm *CostModel) WriteTo(w io.Writer) (int64, error) {
	data, err := json.MarshalIndent(cm, "", "  ")
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// ReadCostModel decodes a cost model from JSON.
func ReadCostModel(r io.Reader) (*CostModel, error) {
	var cm CostModel
	if err := json.NewDecoder(r).Decode(&cm); err != nil {
		return nil, err
	}
	return &cm, nil
}
