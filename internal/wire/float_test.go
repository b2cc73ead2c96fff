package wire

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// floatTokens seeds the float tests: the load corpus' own shapes (Go's
// shortest round-trip form, 16–17 significant digits), the edges of what
// decimal.float64 decides in-package, and tokens the grammar refuses.
var floatTokens = []string{
	// Corpus shapes.
	"206.71295836174818", "0.914766369508619", "0.05", "0.5", "1", "20", "125", "37.5", "1.2345678901234567e-07",
	"9.313225746154785e-10", "1e+21", "1.5E3", "-12.75", "0.30000000000000004", "0.1", "0.2",
	// Exactly 19 digits (the last mantissa uint64 holds unwrapped) and 20.
	"1234567890123456789", "9999999999999999999", "0.1234567890123456789", "123456789.0123456789",
	"12345678901234567890", "18446744073709551615", "18446744073709551616", "0.12345678901234567890",
	"1.00000000000000000000", "0.00000000000000000001234567890123456789", "10000000000000000000000",
	// Round-half-even boundaries of the 53-bit mantissa.
	"9007199254740993", "9007199254740992.5", "9007199254740993.0000001", "9007199254740995",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"4503599627370496.5", "4503599627370497.5", "1e23", "8.41e21", "5e-324", "2.4703282292062327e-324",
	"2.4703282292062328e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
	// Signs and zeros.
	"0", "-0", "0.0", "-0.0", "0e5", "-0e-5", "0.000", "0.0001", "0.00010", "-0.000123e4",
	// Exponent forms, in and out of the power table, in and out of float64.
	"1e0", "1E+0", "1e-0", "1e40", "1e41", "1e-40", "1e-41", "123e38", "123e-42", "1e308", "1e309",
	"1.7976931348623157e308", "1.7976931348623159e308", "-1e309", "1e-400", "1e400", "1e-323",
	"1e99999999999999999999", "1e-99999999999999999999", "0e99999999999999999999", "1e0000000000000000000001",
	// Not numbers, and numbers with something after them.
	"", "-", "+1", "01", "-01", ".5", "1.", "1.e1", "1e", "1e+", "1E-", "1ee1", "0x10", "1_0", "NaN", "Inf",
	"1 ", "1,", "1.5]", "1e5}", "1.2.3", "--1", "1-", "1e1.5", " 1", "\n-2.5e-3\t",
}

// checkFloat holds Float to strconv.ParseFloat on one document: the token
// number consumes is read to the same bits, a token float64 cannot hold is
// refused at the token's first byte, and anything number itself refuses is
// refused exactly as Skip — which never converts — refuses it.
func checkFloat(t *testing.T, doc []byte) {
	t.Helper()
	s := NewScanner(doc)
	got := 7.0
	err := s.Float(&got)

	ref := NewScanner(doc)
	tok, _, refErr := ref.number()
	if refErr != nil {
		var syn, refSyn *SyntaxError
		if !errors.As(err, &syn) || !errors.As(refErr, &refSyn) || *syn != *refSyn || s.pos != ref.pos {
			t.Fatalf("Float(%q) = %v, cursor %d; the grammar says %v, cursor %d", doc, err, s.pos, refErr, ref.pos)
		}
		return
	}
	want, wantErr := strconv.ParseFloat(string(tok), 64)
	if wantErr != nil {
		var syn *SyntaxError
		if !errors.As(err, &syn) || syn.Offset != ref.pos-len(tok) {
			t.Fatalf("Float(%q) = %v, %v; strconv refuses %q (%v), want a SyntaxError at offset %d",
				doc, got, err, tok, wantErr, ref.pos-len(tok))
		}
		return
	}
	if err != nil || math.Float64bits(got) != math.Float64bits(want) || s.pos != ref.pos {
		t.Fatalf("Float(%q) = %v (%#x), %v, cursor %d; strconv reads %q as %v (%#x), cursor %d",
			doc, got, math.Float64bits(got), err, s.pos, tok, want, math.Float64bits(want), ref.pos)
	}
}

func TestFloatMatchesStrconv(t *testing.T) {
	for _, tok := range append(floatTokens, numberTable...) {
		checkFloat(t, []byte(tok))
	}
	// Exponents long enough that the reader stops reading them, alone and
	// cancelled by a fraction as long: whatever strconv makes of those.
	zeros := strings.Repeat("0", 100000)
	for _, tok := range []string{
		"1e9999", "1e-9999", "1e10000", "1e-10000", "1e99999", "1e100000",
		"0." + zeros[:9998] + "1e9999", "0." + zeros[:9999] + "1e10000", "0." + zeros[:9999] + "1e10001",
		"0." + zeros + "1e100001", "0." + zeros + "1e100000", "0." + zeros + "1e1000010",
		"1" + zeros + "e-100000", "1" + zeros + "e-100001", "0." + zeros + zeros + zeros + "1e300001",
	} {
		checkFloat(t, []byte(tok))
	}
	// Shortest round-trip renderings of random bit patterns, the form every
	// writer in this repository emits, and the same value spelled with more
	// digits than it needs.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if i%2 == 0 {
			f = rng.ExpFloat64() * 200 // what a cost matrix holds
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkFloat(t, strconv.AppendFloat(nil, f, 'g', -1, 64))
		checkFloat(t, strconv.AppendFloat(nil, f, 'e', 18+i%3, 64))
		checkFloat(t, strconv.AppendFloat(nil, f, 'f', i%25, 64))
	}
}

// TestFloatFallback pins which tokens decimal.float64 declines, so the
// strconv leg of Float stays exercised: were one of these to start taking
// the in-package path, the differential tests above would no longer cover
// the hand-off.
func TestFloatFallback(t *testing.T) {
	for tok, inPackage := range map[string]bool{
		"206.71295836174818":                       true,
		"9999999999999999999":                      true,  // 19 digits
		"12345678901234567890":                     false, // 20 digits: man has wrapped
		"0.00000000000000000001234567890123456789": true,  // 19 significant digits behind 19 zeros
		"1e40":               true,
		"1e41":               false, // outside the power table
		"1e-41":              false,
		"9007199254740993":   false, // half-way between two floats: the step cannot call it
		"4.9e-324":           false, // subnormal
		"1e309":              false, // infinite
		"-0":                 true,
		"0e999":              true,  // zero whatever the exponent…
		"0e9999999999999999": false, // …that number reads to the end
		"1e-10000":           false,
	} {
		_, d, err := NewScanner([]byte(tok)).number()
		if err != nil {
			t.Fatalf("%q: %v", tok, err)
		}
		if _, ok := d.float64(); ok != inPackage {
			t.Errorf("%q (man %d, exp10 %d, %d significant digits): decided in-package = %v, want %v",
				tok, d.man, d.exp10, d.sig, ok, inPackage)
		}
	}
}

// FuzzScanFloat is the differential behind Float: for any bytes it agrees
// with strconv.ParseFloat on the token — bit for bit on success, same
// accept/reject and same error offset on failure.
func FuzzScanFloat(f *testing.F) {
	for _, tok := range append(floatTokens, numberTable...) {
		f.Add([]byte(tok))
	}
	f.Fuzz(func(t *testing.T, doc []byte) { checkFloat(t, doc) })
}

var sinkFloat float64

// BenchmarkScanFloat reads corpus-shaped tokens: 1 024 shortest round-trip
// renderings of cost-matrix-sized values, 16–17 significant digits each, as
// one array.
func BenchmarkScanFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	doc := []byte{'['}
	const n = 1024
	for i := 0; i < n; i++ {
		if i > 0 {
			doc = append(doc, ',')
		}
		doc = strconv.AppendFloat(doc, 50+rng.Float64()*300, 'g', -1, 64)
	}
	doc = append(doc, ']')
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewScanner(doc)
		if err := s.Array(func() error { return s.Float(&sinkFloat) }); err != nil {
			b.Fatal(err)
		}
	}
}
