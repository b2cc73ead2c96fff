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
// instance (150 tasks × 20 processors, 64 KB) parses in about a quarter of
// what encoding/json's validate, skip, re-validate, reflect sequence takes,
// most of the remainder being strconv.ParseFloat.
//
// The grammar is RFC 8259 exactly as encoding/json enforces it, so a caller
// that replaces json.Unmarshal with a Scanner accepts and rejects the same
// documents:
//
//   - whitespace is space, tab, CR and LF; a byte-order mark is an error;
//   - numbers are -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?; Int further
//     refuses a fraction, an exponent or a value outside int64, and Float a
//     value outside float64 (1e309), as json does for those Go types;
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
