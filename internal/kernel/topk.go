package kernel

import "ftsched/internal/platform"

// Choice is one candidate processor with the value a scheduler ranks it by:
// the finish time of equation (1) for FTSA, the schedule pressure σ for
// FTBAR.
type Choice struct {
	Proc  platform.ProcID
	Value float64
}

func (c Choice) before(o Choice) bool {
	if c.Value != o.Value {
		return c.Value < o.Value
	}
	return c.Proc < o.Proc
}

// KeepSmallest offers c to top — the at most k smallest choices seen so far,
// ascending by (Value, Proc) — and returns the updated slice. Offering all m
// processors leaves exactly what sorting them by (Value, Proc) and keeping
// the first k would: the schedulers' "ε+1 best processors, ties toward the
// lower index", in m·k comparisons at worst and m when the early offers are
// the best, with no allocation once top has capacity k. k must be positive.
func KeepSmallest(top []Choice, k int, c Choice) []Choice {
	i := len(top)
	if i < k {
		top = append(top, c)
	} else if i--; !c.before(top[i]) {
		return top
	}
	for ; i > 0 && c.before(top[i-1]); i-- {
		top[i] = top[i-1]
	}
	top[i] = c
	return top
}
