package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// maxDepth is the container nesting encoding/json accepts.
const maxDepth = 10000

// SyntaxError reports input that is not the JSON the caller asked for — not
// JSON at all, or a well-formed value of the wrong type or out of range —
// and the byte offset it was detected at.
type SyntaxError struct {
	Msg    string
	Offset int
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("%s at offset %d", e.Msg, e.Offset) }

// Scanner is a cursor over one JSON document. Every method skips leading
// whitespace, consumes exactly one value (or none, on error) and leaves the
// cursor behind it. null reads as json.Unmarshal reads it: the scalar
// readers take a destination and leave it untouched, Object and Array see an
// empty container.
type Scanner struct {
	buf   []byte
	pos   int
	depth int
}

// NewScanner returns a scanner at the start of data.
func NewScanner(data []byte) *Scanner { return &Scanner{buf: data} }

// Len returns the size of the document in bytes, read or not.
func (s *Scanner) Len() int { return len(s.buf) }

// Offset returns the cursor's byte offset into the document.
func (s *Scanner) Offset() int { return s.pos }

// Advance moves the cursor n bytes on, over a value the caller has checked
// by other means — bytes it knows to be one whole value, say.
func (s *Scanner) Advance(n int) { s.pos += n }

// Unmarshal runs scan over data as one complete document: the value scan
// consumes, then nothing but whitespace.
func Unmarshal(data []byte, scan func(*Scanner) error) error {
	s := NewScanner(data)
	if err := scan(s); err != nil {
		return err
	}
	return s.End()
}

func errAt(offset int, format string, args ...any) error {
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Offset: offset}
}

// unexpected reports the byte under the cursor, or the end of input, where
// want was required.
func (s *Scanner) unexpected(want string) error {
	if s.pos >= len(s.buf) {
		return errAt(s.pos, "unexpected end of JSON input, want %s", want)
	}
	return errAt(s.pos, "invalid character %q, want %s", rune(s.buf[s.pos]), want)
}

// space skips whitespace. Any byte above ' ' ends it on the first
// comparison: that is every byte of a compact document.
func (s *Scanner) space() {
	for s.pos < len(s.buf) {
		if c := s.buf[s.pos]; c > ' ' || c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return
		}
		s.pos++
	}
}

// Peek returns the first byte of the next value without consuming it, or 0
// at the end of input.
func (s *Scanner) Peek() byte {
	s.space()
	if s.pos < len(s.buf) {
		return s.buf[s.pos]
	}
	return 0
}

// End requires that only whitespace remains.
func (s *Scanner) End() error {
	if s.space(); s.pos < len(s.buf) {
		return errAt(s.pos, "unexpected data after the JSON body")
	}
	return nil
}

// Null consumes a null literal if one is next and reports whether it did.
func (s *Scanner) Null() bool {
	if s.space(); len(s.buf)-s.pos < 4 || string(s.buf[s.pos:s.pos+4]) != "null" {
		return false
	}
	s.pos += 4
	return true
}

// literal consumes word, whose first byte is known to be under the cursor.
func (s *Scanner) literal(word string) error {
	for i := 1; i < len(word); i++ {
		if s.pos+i >= len(s.buf) || s.buf[s.pos+i] != word[i] {
			s.pos += i
			return s.unexpected("literal " + word)
		}
	}
	s.pos += len(word)
	return nil
}

// open consumes the bracket that starts a container and reports whether a
// first member or element follows. A null opens nothing: it stands for the
// empty container, as it does when encoding/json reads one into a struct or
// a slice.
func (s *Scanner) open(bracket, closing byte, want string) (more bool, err error) {
	if s.Null() {
		return false, nil
	}
	if s.Peek() != bracket {
		return false, s.unexpected(want)
	}
	if s.depth++; s.depth > maxDepth {
		return false, errAt(s.pos, "exceeded max depth")
	}
	s.pos++
	if s.Peek() == closing {
		s.pos++
		s.depth--
		return false, nil
	}
	return true, nil
}

// next consumes the separator after a member or element and reports whether
// the container goes on.
func (s *Scanner) next(closing byte, want string) (more bool, err error) {
	switch s.Peek() {
	case ',':
		s.pos++
		return true, nil
	case closing:
		s.pos++
		s.depth--
		return false, nil
	}
	return false, s.unexpected(want)
}

// Object consumes an object (or null, the empty object), calling member once
// per key with the cursor on that key's value; member must consume it. key
// is the key's string token, quotes and escapes included (Fields.Index
// resolves it), and aliases the input. Keys are not checked for duplicates.
func (s *Scanner) Object(member func(key []byte) error) error {
	more, err := s.open('{', '}', "an object")
	for more && err == nil {
		var key []byte
		if key, err = s.str("an object key"); err != nil {
			break
		}
		if s.Peek() != ':' {
			return s.unexpected("':' after the object key")
		}
		s.pos++
		if err = member(key); err == nil {
			more, err = s.next('}', "',' or '}'")
		}
	}
	return err
}

// Array consumes an array (or null, the empty array), calling elem once per
// element with the cursor on it; elem must consume it.
func (s *Scanner) Array(elem func() error) error {
	more, err := s.open('[', ']', "an array")
	for more && err == nil {
		if err = elem(); err == nil {
			more, err = s.next(']', "',' or ']'")
		}
	}
	return err
}

// Skip consumes one value of any type, checking its syntax.
func (s *Scanner) Skip() error {
	switch c := s.Peek(); {
	case c == '{':
		return s.Object(func([]byte) error { return s.Skip() })
	case c == '[':
		return s.Array(s.Skip)
	case c == '"':
		_, err := s.str("a string")
		return err
	case c == '-' || isDigit(c):
		_, _, err := s.number()
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	}
	return s.unexpected("a value")
}

// Raw consumes one value like Skip and returns its bytes, which alias the
// input.
func (s *Scanner) Raw() ([]byte, error) {
	s.space()
	start := s.pos
	err := s.Skip()
	return s.buf[start:s.pos], err
}

// Float reads a number into dst, refusing one float64 cannot hold. The value
// is strconv.ParseFloat's to the bit: number has already read the token as a
// decimal, and only a token that form cannot settle is parsed again.
func (s *Scanner) Float(dst *float64) error {
	if s.Null() {
		return nil
	}
	tok, d, err := s.number()
	if err != nil {
		return err
	}
	f, ok := d.float64()
	if !ok {
		if f, err = strconv.ParseFloat(string(tok), 64); err != nil {
			return errAt(s.pos-len(tok), "number out of range for a float")
		}
	}
	*dst = f
	return nil
}

// Int reads a number into dst, refusing a fraction, an exponent or a value
// an int cannot hold. An integer of up to maxIntSig digits is number's
// mantissa; only a longer one is parsed again, by strconv.ParseInt.
func (s *Scanner) Int(dst *int) error {
	if s.Null() {
		return nil
	}
	tok, d, err := s.number()
	if err != nil {
		return err
	}
	if !d.fraction {
		if d.sig <= maxIntSig {
			n := int64(d.man)
			if d.neg {
				n = -n
			}
			if int64(int(n)) == n {
				*dst = int(n)
				return nil
			}
		} else if n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize); err == nil {
			*dst = int(n)
			return nil
		}
	}
	return errAt(s.pos-len(tok), "number is not an integer in range")
}

// maxIntSig is how many digits an int64 always holds.
const maxIntSig = 18

// String reads a string into dst.
func (s *Scanner) String(dst *string) error {
	if s.Null() {
		return nil
	}
	tok, err := s.str("a string")
	if err != nil {
		return err
	}
	*dst = string(unquote(tok))
	return nil
}

// unquote decodes a string token str accepted; the result aliases the token
// unless it carries an escape or a byte outside ASCII. Such a token goes
// through json.Unmarshal, which is the definition of what escapes, invalid
// UTF-8 and lone surrogates turn into; it cannot fail on a token str has
// checked.
func unquote(tok []byte) []byte {
	text := tok[1 : len(tok)-1]
	for _, c := range text {
		if c == '\\' || c >= 0x80 {
			var out string
			_ = json.Unmarshal(tok, &out)
			return []byte(out)
		}
	}
	return text
}

// number consumes one number token and, on the way, reads it as a decimal:
// the digits are folded into d.man as they are checked, so Float seldom has
// to look at them twice.
func (s *Scanner) number() (tok []byte, d decimal, err error) {
	s.space()
	b, i := s.buf, s.pos
	fail := func(at int, want string) ([]byte, decimal, error) {
		s.pos = at
		return nil, decimal{}, s.unexpected(want)
	}
	if i < len(b) && b[i] == '-' {
		d.neg = true
		i++
	}
	first := i
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && isDigit(b[i]); i++ {
			d.man = d.man*10 + uint64(b[i]-'0')
		}
		if i == first {
			return fail(i, "a number")
		}
	}
	d.sig = i - first
	if i < len(b) && b[i] == '.' {
		point := i
		for i++; i < len(b) && isDigit(b[i]); i++ {
			d.man = d.man*10 + uint64(b[i]-'0')
		}
		if i == point+1 {
			return fail(i, "a digit after the decimal point")
		}
		d.exp10 = point + 1 - i
		d.sig += i - point - 1
		d.fraction = true
	}
	if b[first] == '0' {
		// The integer part is the lone 0: it and the zeros that open the
		// fraction are not significant.
		d.sig--
		for k := first + 2; k < i && b[k] == '0'; k++ {
			d.sig--
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		d.fraction = true
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		digit, e := i, 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < maxExponent {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == digit {
			return fail(i, "a digit in the exponent")
		}
		if e >= maxExponent {
			d.sig = maxSig + 1 // e is no longer the exponent: not for float64 to decide
		}
		if neg {
			e = -e
		}
		d.exp10 += e
	}
	tok = b[s.pos:i]
	s.pos = i
	return tok, d, nil
}

// str consumes one string token and returns it, quotes included.
func (s *Scanner) str(want string) ([]byte, error) {
	if s.Peek() != '"' {
		return nil, s.unexpected(want)
	}
	b, start := s.buf, s.pos
	for s.pos++; s.pos < len(b); s.pos++ {
		switch c := b[s.pos]; {
		case c == '"':
			s.pos++
			return b[start:s.pos], nil
		case c == '\\':
			s.pos++
			if s.pos < len(b) && b[s.pos] == 'u' {
				for k := 0; k < 4; k++ {
					if s.pos++; s.pos >= len(b) || !isHex(b[s.pos]) {
						return nil, s.unexpected(`four hexadecimal digits after \u`)
					}
				}
			} else if s.pos >= len(b) || strings.IndexByte(`"\/bfnrt`, b[s.pos]) < 0 {
				return nil, s.unexpected("a string escape code")
			}
		case c < 0x20:
			return nil, s.unexpected("no control character in a string")
		}
	}
	return nil, s.unexpected("the closing quote")
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// Fields names the members a decoder reads from an object.
type Fields []string

// Index returns which field the key token Object passed names, or -1 for a
// key the decoder ignores. It matches as encoding/json matches a struct
// field: exactly, or failing that under Unicode case folding
// (bytes.EqualFold).
func (f Fields) Index(key []byte) int {
	text := key[1 : len(key)-1]
	for i, name := range f {
		if string(text) == name {
			return i
		}
	}
	text = unquote(key)
	for i, name := range f {
		if bytes.EqualFold(text, []byte(name)) {
			return i
		}
	}
	return -1
}
