// Package wire is the single-pass reader behind every instance decoder of
// ftsched: dag.Graph, platform.Platform, platform.CostModel and the request
// bodies of internal/service all parse through one Scanner.
//
// A Scanner is a cursor over a []byte holding one JSON document. It walks
// the bytes once: Object and Array iterate a container and hand control to
// the caller per member or element, Float, Int, String and Null read a
// scalar, Skip validates and discards any value, End requires that nothing
// but whitespace remains. Nothing is reflected over, nothing is buffered and
// nothing survives a call — the only state is the position and the nesting
// depth — so a decoder built on it costs what the bytes cost: a paper-sized
// instance (150 tasks × 20 processors, 64 KB) parses in about an eighth of
// what encoding/json's validate, skip, re-validate, reflect sequence takes.
//
// Numbers are read once too. An instance is mostly numbers — a cost matrix, a
// delay matrix and the edge volumes, some 3 400 decimals in Go's shortest
// round-trip form, 16–17 significant digits each — so the pass that checks a
// number's grammar also folds its digits into a uint64 mantissa and its
// point and exponent into a power of ten (decimal, in float.go). Float then
// converts that pair itself when two things hold: the token has at most 19
// significant digits, so the mantissa is exact; and one Eisel–Lemire step
// over a table of 1e-40…1e40 reports success, which it does only for the
// correctly rounded float64. Everything else — a longer mantissa, a power
// outside the table, a value half-way between two floats that the step
// cannot call, a subnormal or out-of-range result — goes to
// strconv.ParseFloat on the token, whose value or error is then the answer.
// The step and the table rows are copied from strconv, which applies them to
// the same mantissa and exponent before its own slow path, so the in-package
// result is strconv's to the bit by construction; FuzzScanFloat and
// TestFloatMatchesStrconv hold the two against each other, and
// TestFloatFallback pins which tokens take which leg so the hand-off stays
// exercised.
//
// The grammar is RFC 8259 exactly as encoding/json enforces it, so a caller
// that replaces json.Unmarshal with a Scanner accepts and rejects the same
// documents:
//
//   - whitespace is space, tab, CR and LF; a byte-order mark is an error;
//   - numbers are -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?; Int further
//     refuses a fraction, an exponent or a value outside int64, and Float a
//     value outside float64 (1e309), as json does for those Go types. Int
//     reads an integer of up to 18 digits from the mantissa number folded
//     while checking it, and hands a longer one to strconv.ParseInt;
//     FuzzScanInt holds the two against each other;
//   - strings refuse raw control characters and unknown escapes; a token
//     with an escape or a non-ASCII byte is unquoted by json.Unmarshal on
//     that token alone, so invalid UTF-8 and lone surrogates become U+FFFD
//     the same way;
//   - containers nest at most 10 000 deep;
//   - null where a scalar, an object or an array is read is consumed and
//     leaves the destination alone, respectively iterates nothing;
//   - Fields.Index matches an object key the way json matches a struct
//     field: exactly, or failing that under Unicode case folding.
//
// Errors are *SyntaxError values carrying the byte offset they were
// detected at.
package wire
