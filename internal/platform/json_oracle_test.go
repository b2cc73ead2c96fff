package platform

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// oraclePlatform and oracleCostModel are the UnmarshalJSON methods as they
// were before the wire scanner: encoding/json reflecting into the wire
// struct, then the same checks.
func oraclePlatform(p *Platform, data []byte) error {
	var in platformJSON
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

func oracleCostModel(cm *CostModel, data []byte) error {
	var in struct {
		Cost [][]float64 `json:"cost"`
	}
	cm.cost = nil
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("platform: decoding cost model: %w", err)
	}
	if len(in.Cost) == 0 {
		return fmt.Errorf("platform: empty cost matrix")
	}
	m := len(in.Cost[0])
	if m == 0 {
		return fmt.Errorf("platform: cost matrix has no processors")
	}
	for t := range in.Cost {
		if len(in.Cost[t]) != m {
			return fmt.Errorf("%w: cost row %d has %d entries, want %d", ErrDimension, t, len(in.Cost[t]), m)
		}
		for k, c := range in.Cost[t] {
			if c < 0 {
				return fmt.Errorf("platform: negative cost E(%d,P%d)=%g", t, k, c)
			}
		}
	}
	cm.cost = in.Cost
	return nil
}

// sameOutcome: both accept, or both refuse — with the same words when the
// refusal is a validation message rather than encoding/json's.
func sameOutcome(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return strings.Contains(want.Error(), "decoding") || got.Error() == want.Error()
}

// TestScanJSONMatchesOracle: platform and cost-model files decode to the
// same matrices, or are refused with the same validation message, as they
// were by encoding/json — into fresh storage and into storage a bigger
// matrix warmed.
func TestScanJSONMatchesOracle(t *testing.T) {
	matrices := []string{
		`[[0,1],[1,0]]`, `[[0]]`, ` [ [ 0 , 2.5e-1 ] , [ 1E0 , -0 ] ] `, `[[null,1],[1,null]]`, `[[0,1e-400],[1,0]]`,
		`[[0,0.1234567890123456789],[123456789012345678901234567890,0]]`,
		// Refused.
		`null`, `[]`, `[[]]`, `[null]`, `[[0,1],null]`, `[null,[1,0]]`, `[[0,1],[1]]`, `[[0,1],[1,0],[]]`, `[[0,-1],[1,0]]`,
		`[[1,1],[1,0]]`, `[[0,1e309],[1,0]]`, `[[0,"1"],[1,0]]`, `[[0,1],7]`, `{}`, `7`, `[[0,1],[1,0],]`, `[[0,01],[1,0]]`,
		`[[0,1.],[1,0]]`, `[[0,true],[1,0]]`,
	}
	warmP, warmC := new(Platform), new(CostModel)
	const warm = `[[0,9,9],[9,0,9],[9,9,0]]`
	for _, m := range matrices {
		for _, doc := range []string{
			`{"procs":2,"delay":` + m + `}`, `{"procs":1,"DELAY":` + m + `,"unit":{"s":[1]}}`, `{"delay":` + m + `,"procs":2.0}`,
			`{"delay":[[0,5],[5,0]],"delay":` + m + `,"procs":2}`,
		} {
			if err := warmP.UnmarshalJSON([]byte(`{"procs":3,"delay":` + warm + `}`)); err != nil {
				t.Fatal(err)
			}
			var fresh, want Platform
			wantErr := oraclePlatform(&want, []byte(doc))
			for name, got := range map[string]*Platform{"fresh": &fresh, "warm": warmP} {
				gotErr := got.UnmarshalJSON([]byte(doc))
				if !sameOutcome(gotErr, wantErr) {
					t.Errorf("%s platform %q: %v, oracle %v", name, doc, gotErr, wantErr)
				}
				if wantErr == nil && (got.m != want.m || !reflect.DeepEqual(got.delay, want.delay)) {
					t.Errorf("%s platform %q: decoded %v, oracle %v", name, doc, got.delay, want.delay)
				}
			}
		}
		for _, doc := range []string{`{"cost":` + m + `}`, `{"Cost":` + m + `,"unit":"s"}`, `{"cost":[[5,5]],"COST":` + m + `}`} {
			if strings.Contains(doc, "5") && strings.Contains(m, "null") {
				continue // a repeated key with a null entry is the one licensed divergence, pinned below
			}
			if err := warmC.UnmarshalJSON([]byte(`{"cost":` + warm + `}`)); err != nil {
				t.Fatal(err)
			}
			var fresh, want CostModel
			wantErr := oracleCostModel(&want, []byte(doc))
			for name, got := range map[string]*CostModel{"fresh": &fresh, "warm": warmC} {
				gotErr := got.UnmarshalJSON([]byte(doc))
				if !sameOutcome(gotErr, wantErr) {
					t.Errorf("%s cost model %q: %v, oracle %v", name, doc, gotErr, wantErr)
				}
				if wantErr == nil && !reflect.DeepEqual(got.cost, want.cost) {
					t.Errorf("%s cost model %q: decoded %v, oracle %v", name, doc, got.cost, want.cost)
				}
			}
		}
	}
	// A repeated key is decoded from nothing: the null entry is 0, where
	// encoding/json kept the first occurrence's 5.
	var dup CostModel
	if err := dup.UnmarshalJSON([]byte(`{"cost":[[5,5]],"cost":[[null,1]]}`)); err != nil || dup.cost[0][0] != 0 {
		t.Errorf("repeated cost key: %v %v, want the last occurrence alone", dup.cost, err)
	}
	// Documents without the matrix member. Warm storage is capacity, never
	// data: {"procs":3} into a value that just held a 3×3 matrix is as empty
	// as into a fresh one. (After a document with a tail the value is whatever
	// the document held; encoding/json never hands UnmarshalJSON one.)
	missing := []string{`null`, `{}`, `[]`, ``, `{"procs":1}`, `{"procs":3}`, `{"procs":3,"delay":null}`, `{"cost":null}`, `{"unit":"s"}`}
	tailed := []string{`{"procs":1,"delay":[[0]]} x`, `{"procs":1,"delay":[[0]]}]`}
	for i, doc := range append(missing, tailed...) {
		wantEmpty := i < len(missing)
		if err := warmP.UnmarshalJSON([]byte(`{"procs":3,"delay":` + warm + `}`)); err != nil {
			t.Fatal(err)
		}
		var freshP, wantP Platform
		wantErr := oraclePlatform(&wantP, []byte(doc))
		for name, got := range map[string]*Platform{"fresh": &freshP, "warm": warmP} {
			if gotErr := got.UnmarshalJSON([]byte(doc)); !sameOutcome(gotErr, wantErr) {
				t.Errorf("%s platform %q: %v, oracle %v", name, doc, gotErr, wantErr)
			}
			if wantEmpty && (got.m != 0 || len(got.delay) != 0) {
				t.Errorf("%s platform %q: refused, yet holds a %d-processor matrix %v", name, doc, got.m, got.delay)
			}
		}
		if err := warmC.UnmarshalJSON([]byte(`{"cost":` + warm + `}`)); err != nil {
			t.Fatal(err)
		}
		var freshC, wantC CostModel
		wantErr = oracleCostModel(&wantC, []byte(doc))
		for name, got := range map[string]*CostModel{"fresh": &freshC, "warm": warmC} {
			if gotErr := got.UnmarshalJSON([]byte(doc)); !sameOutcome(gotErr, wantErr) {
				t.Errorf("%s cost model %q: %v, oracle %v", name, doc, gotErr, wantErr)
			}
			if wantEmpty && len(got.cost) != 0 {
				t.Errorf("%s cost model %q: refused, yet holds %v", name, doc, got.cost)
			}
		}
	}
}
