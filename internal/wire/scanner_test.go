package wire

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// skipAll is the scanner's json.Valid: one value, then the end.
func skipAll(doc []byte) error { return Unmarshal(doc, (*Scanner).Skip) }

var numberTable = []string{
	"0", "-0", "1", "-1", "10", "123456789", "0.5", "-0.5", "1.0", "1.25e3", "1E5", "1e+5", "1e-5",
	"1e0", "0e0", "0.0e-0", "1e309", "-1e309", "1e-400", "99999999999999999999", "9223372036854775807",
	"9223372036854775808", "-9223372036854775808", "-9223372036854775809", "0.1234567890123456789",
	"123456789012345678901234567890", "4.9e-324", "1.7976931348623157e308", "1.7976931348623159e308",
	"999999999999999999", "-999999999999999999", "1000000000000000000",
	// Not numbers.
	"", "-", "+1", "01", "-01", "00", ".5", "1.", "1.e1", "1e", "1e+", "1e-", "1ee1", "1e1.5", "0x10",
	"1_000", "Infinity", "NaN", "-Infinity", "1 2", "--1", "1-", "1.2.3", "١",
}

var stringTable = []string{
	`""`, `"a"`, `"hello world"`, `"aé😀"`, `"\""`, `"\\"`, `"\/"`, `"\b\f\n\r\t"`, `"\u0041"`,
	`"\u00e9"`, `"\ud83d\ude00"`, `"\ud800"`, `"\udc00\ud800"`, `"\u12Af"`, "\"a\xffb\"", "\"\xc3\"",
	"\"\xed\xa0\x80\"", `"a\u0000b"`, `"/"`, "\"\x7f\"",
	// Not strings.
	`"`, `"a`, `"\"`, `"\a"`, `"\x41"`, `"\u12"`, `"\u12g4"`, `"\U0041"`, "\"a\nb\"", "\"a\tb\"",
	"\"a\x00b\"", "\"a\x1fb\"", `'a'`, `"a"b"`, `"\`, `"\u`,
}

var documentTable = []string{
	`{}`, `[]`, ` { } `, "\t[\r\n]\n", `{"a":1}`, `{"a":1,"b":[true,false,null]}`, `[[],{}]`, `[1,2]`,
	`{"a":{"b":{"c":[]}}}`, `{"":0}`, `{"a":1,"a":2}`, `true`, `false`, `null`, ` null `,
	// Not documents.
	`{`, `}`, `[`, `]`, `{]`, `[}`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{,}`, `{a:1}`, `{"a" 1}`, `{"a":1 "b":2}`,
	`[1,]`, `[,1]`, `[1 2]`, `[1,,2]`, `tru`, `truE`, `nul`, `nulll`, `falsey`, `True`, `{}{}`, `{} x`,
	`[]]`, `{}}`, "\ufeff{}", "\f{}", "{}\f", "\u00a0{}", "{\"a\":1}\x00", `{"a":1}]garbage`, `//c` + "\n{}",
	`{"a":1, /* c */ "b":2}`,
}

// TestSkipMatchesJSONValid is the grammar contract: the scanner accepts a
// document exactly when encoding/json calls it valid — numbers, strings and
// structure, each alone and inside both container types.
func TestSkipMatchesJSONValid(t *testing.T) {
	var docs []string
	for _, table := range [][]string{numberTable, stringTable, documentTable} {
		for _, v := range table {
			docs = append(docs, v, " "+v+"\n", "["+v+"]", "[0,"+v+" ]", `{"k":`+v+`}`, `{"k": `+v+` ,"l":0}`)
		}
	}
	for _, s := range stringTable {
		docs = append(docs, "{"+s+":0}")
	}
	for _, doc := range docs {
		if got, want := skipAll([]byte(doc)) == nil, json.Valid([]byte(doc)); got != want {
			t.Errorf("%q: scanner accepts = %v, json.Valid = %v", doc, got, want)
		}
	}
}

func TestNestingLimit(t *testing.T) {
	for _, open := range []string{"[", `{"a":`} {
		closing := map[string]string{"[": "]", `{"a":`: "}"}[open]
		for depth, want := range map[int]bool{maxDepth: true, maxDepth + 1: false} {
			doc := []byte(strings.Repeat(open, depth) + "0" + strings.Repeat(closing, depth))
			if open == "[" {
				doc = []byte(strings.Repeat("[", depth) + strings.Repeat("]", depth))
			}
			if json.Valid(doc) != want {
				t.Fatalf("json.Valid at depth %d = %v; the limit moved", depth, !want)
			}
			if got := skipAll(doc) == nil; got != want {
				t.Errorf("%q nested %d deep: accepted = %v, want %v", open, depth, got, want)
			}
		}
	}
	// The limit is on what is open at once, not on what was ever opened.
	if err := skipAll([]byte("[" + strings.Repeat("[],", 3*maxDepth) + "[]]")); err != nil {
		t.Errorf("%d sibling arrays refused: %v", 3*maxDepth, err)
	}
}

// TestScalarsMatchJSON pins Float, Int and String to what json.Unmarshal
// stores in a float64, an int and a string for the same token: same
// accept/reject and, when accepted, the same value to the bit (null leaves
// both destinations alone).
func TestScalarsMatchJSON(t *testing.T) {
	for _, tok := range append(append([]string{"null", "true", `{}`, `[]`, "n7", `n"a"`, "nul", "nulll"}, numberTable...), stringTable...) {
		doc := []byte(tok)
		var (
			gotF, wantF = 7.0, 7.0
			gotI, wantI = 7, 7
			gotS, wantS = "seven", "seven"
		)
		errF := Unmarshal(doc, func(s *Scanner) error { return s.Float(&gotF) })
		if wantErr := json.Unmarshal(doc, &wantF); (errF == nil) != (wantErr == nil) ||
			errF == nil && math.Float64bits(gotF) != math.Float64bits(wantF) {
			t.Errorf("Float(%q) = %v, %v; json: %v, %v", tok, gotF, errF, wantF, wantErr)
		}
		errI := Unmarshal(doc, func(s *Scanner) error { return s.Int(&gotI) })
		if wantErr := json.Unmarshal(doc, &wantI); (errI == nil) != (wantErr == nil) || errI == nil && gotI != wantI {
			t.Errorf("Int(%q) = %v, %v; json: %v, %v", tok, gotI, errI, wantI, wantErr)
		}
		errS := Unmarshal(doc, func(s *Scanner) error { return s.String(&gotS) })
		if wantErr := json.Unmarshal(doc, &wantS); (errS == nil) != (wantErr == nil) || errS == nil && gotS != wantS {
			t.Errorf("String(%q) = %q, %v; json: %q, %v", tok, gotS, errS, wantS, wantErr)
		}
	}
}

// TestFieldsIndexMatchesJSON pins key matching to encoding/json's: whichever
// struct field json stores a key's value in is the field Index names.
func TestFieldsIndexMatchesJSON(t *testing.T) {
	fields := Fields{"src", "dst", "volume", "k"}
	keys := []string{`"src"`, `"dst"`, `"volume"`, `"k"`, `"SRC"`, `"Dst"`, `"VOLUME"`, `"ſrc"`, `"\u017frc"`,
		`"\u0073rc"`, `"sRc"`, `"K"`, `"K"`, `"\u212a"`, `"src "`, `" src"`, `""`, `"sr"`, `"srcc"`, `"volumé"`,
		"\"sr\xff\"", `"s\\rc"`, `"d\/st"`, `"\u0076olume"`}
	for _, key := range keys {
		var target struct {
			Src    int `json:"src"`
			Dst    int `json:"dst"`
			Volume int `json:"volume"`
			K      int `json:"k"`
		}
		if err := json.Unmarshal([]byte("{"+key+":1}"), &target); err != nil {
			t.Fatalf("key %s: %v", key, err)
		}
		want := -1
		for i, v := range []int{target.Src, target.Dst, target.Volume, target.K} {
			if v == 1 {
				want = i
			}
		}
		got := -2
		err := Unmarshal([]byte("{"+key+":1}"), func(s *Scanner) error {
			return s.Object(func(k []byte) error {
				got = fields.Index(k)
				return s.Skip()
			})
		})
		if err != nil || got != want {
			t.Errorf("key %s: Index = %d (%v), json matched field %d", key, got, err, want)
		}
	}
}

func TestIterationAndOffsets(t *testing.T) {
	doc := []byte(` {"a": [1, null, 2.5], "b" : {"c":"d"}, "e":null} `)
	var (
		floats []float64
		raw    string
		sawE   bool
	)
	fields := Fields{"a", "b", "e"}
	err := Unmarshal(doc, func(s *Scanner) error {
		return s.Object(func(key []byte) error {
			switch fields.Index(key) {
			case 0:
				return s.Array(func() error {
					floats = append(floats, -1)
					return s.Float(&floats[len(floats)-1])
				})
			case 1:
				v, err := s.Raw()
				raw = string(v)
				return err
			case 2:
				sawE = s.Null()
				return nil
			}
			return errors.New("unexpected key " + string(key))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(floats) != 3 || floats[0] != 1 || floats[1] != -1 || floats[2] != 2.5 {
		t.Errorf("floats = %v, want [1 -1 2.5] (null leaves the destination alone)", floats)
	}
	if raw != `{"c":"d"}` || !sawE {
		t.Errorf("raw = %q, sawE = %v", raw, sawE)
	}
	// null is the empty container, to Object and to Array.
	calls := 0
	count := func() error { calls++; return nil }
	err = Unmarshal([]byte(`[null, null]`), func(s *Scanner) error {
		return s.Array(func() error { return s.Array(count) })
	})
	if err == nil {
		err = Unmarshal([]byte(` null`), func(s *Scanner) error { return s.Object(func([]byte) error { return count() }) })
	}
	if err != nil || calls != 0 {
		t.Errorf("null containers: %v, %d callbacks, want none", err, calls)
	}
	// A failed null leaves the cursor where it was: "n{}" is not an object.
	for _, doc := range []string{`n{}`, `n[]`, `nul{}`, `nul`} {
		if Unmarshal([]byte(doc), func(s *Scanner) error { return s.Object(func([]byte) error { return s.Skip() }) }) == nil ||
			Unmarshal([]byte(doc), func(s *Scanner) error { return s.Array(s.Skip) }) == nil {
			t.Errorf("%q read as a container", doc)
		}
	}

	for doc, wantOffset := range map[string]int{
		`{"a":1} x`:   8,
		`{"a":1}]`:    7,
		`{"a":1,}`:    7,
		`[1,2`:        4,
		``:            0,
		`{"a":tru}`:   8,
		`{"a":"x\q"}`: 8,
		"{\"a\":\"\n": 6,
	} {
		var syn *SyntaxError
		if err := skipAll([]byte(doc)); !errors.As(err, &syn) || syn.Offset != wantOffset {
			t.Errorf("%q: error %v, want a SyntaxError at offset %d", doc, err, wantOffset)
		}
	}
	if err := skipAll([]byte(`{} {}`)); err == nil || !strings.Contains(err.Error(), "unexpected data after the JSON body") {
		t.Errorf("trailing document: %v", err)
	}
}

// FuzzSkipMatchesJSONValid stretches the grammar tables: for any bytes, the
// scanner and json.Valid agree.
func FuzzSkipMatchesJSONValid(f *testing.F) {
	for _, table := range [][]string{numberTable, stringTable, documentTable} {
		for _, v := range table {
			f.Add([]byte(v))
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		if got, want := skipAll(doc) == nil, json.Valid(doc); got != want {
			t.Fatalf("%q: scanner accepts = %v, json.Valid = %v", doc, got, want)
		}
	})
}

// FuzzScanInt is the differential behind Int's mantissa path: wherever the
// next value is a number token, Int accepts it exactly when
// strconv.ParseInt does, stores the same value, and refuses it with an
// error at the token's first byte; anything else Int refuses as Skip does.
func FuzzScanInt(f *testing.F) {
	for _, tok := range numberTable {
		f.Add([]byte(tok))
		f.Add([]byte(" " + tok + ","))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		got := 7
		s := NewScanner(doc)
		err := s.Int(&got)
		probe := NewScanner(doc)
		if probe.Null() {
			if err != nil || got != 7 || s.Offset() != probe.Offset() {
				t.Fatalf("%q: null read as %d, %v", doc, got, err)
			}
			return
		}
		start := probe.Offset()
		tok, rawErr := probe.Raw()
		if c := probe.buf[start:]; rawErr != nil || len(c) == 0 || c[0] != '-' && !isDigit(c[0]) {
			if err == nil || got != 7 {
				t.Fatalf("%q: not a number token, Int read %d, %v", doc, got, err)
			}
			return
		}
		want, parseErr := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		if parseErr == nil {
			if err != nil || got != int(want) || s.Offset() != probe.Offset() {
				t.Fatalf("%q: Int = %d, %v at %d; ParseInt = %d", doc, got, err, s.Offset(), want)
			}
			return
		}
		var syn *SyntaxError
		if !errors.As(err, &syn) || syn.Offset != start || syn.Msg != "number is not an integer in range" || got != 7 {
			t.Fatalf("%q: Int = %d, %v; ParseInt refuses: %v", doc, got, err, parseErr)
		}
	})
}
