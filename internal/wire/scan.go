package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Scanner reads one JSON document in a single pass, without reflection, in
// the shape this repository's appenders write it: the decoder calls Key for
// each field in the writer's order and a typed read for its value, Open and
// Close around each object and array, and More before each element of an
// array of unknown length. Whitespace between tokens is skipped.
//
// It accepts less than encoding/json: fields only in that order, names
// matched exactly (no case folding), no null for a value, fixed-length
// arrays at exactly their length, nothing but whitespace after the
// document. What it accepts, StrictUnmarshal accepts with the same value:
// numbers are parsed by strconv as encoding/json parses them, and a string
// holding an escape or a byte outside printable ASCII is encoding/json's to
// read. The first failure sticks: later reads are no-ops returning zero
// values, and Err and End report it.
type Scanner struct {
	data  []byte
	pos   int
	comma bool // a value just ended: the next field or element follows a comma
	err   error
}

// NewScanner returns a scanner at the start of data.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

// Err is the scan's first failure, or nil.
func (s *Scanner) Err() error { return s.err }

// Fail records err as the scan's failure unless one is already recorded: a
// decoder's check on what it read fails the scan like a syntax error.
func (s *Scanner) Fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *Scanner) failf(format string, args ...any) {
	s.Fail(fmt.Errorf("offset %d: "+format, append([]any{s.pos}, args...)...))
}

// End reports the scan's failure, or data left after the document.
func (s *Scanner) End() error {
	if s.peek() != 0 || s.pos < len(s.data) {
		s.failf("trailing data after JSON value")
	}
	return s.err
}

// peek skips whitespace and returns the next byte: 0 at the end of the
// data or after a failure.
func (s *Scanner) peek() byte {
	if s.pos = s.skip(s.pos); s.err != nil || s.pos == len(s.data) {
		return 0
	}
	return s.data[s.pos]
}

func (s *Scanner) skip(i int) int {
	for i < len(s.data) && (s.data[i] == ' ' || s.data[i] == '\t' || s.data[i] == '\n' || s.data[i] == '\r') {
		i++
	}
	return i
}

func (s *Scanner) expect(c byte) {
	if s.peek() != c {
		s.failf("want %q", c)
		return
	}
	s.pos++
}

// value starts a value: the comma after the one before it, then whitespace.
func (s *Scanner) value() {
	if s.comma {
		s.expect(',')
		s.comma = false
	}
	s.peek()
}

// Open reads the '{' or '[' that opens an object or array.
func (s *Scanner) Open(c byte) *Scanner {
	s.value()
	s.expect(c)
	return s
}

// Close reads the '}' or ']' that closes the open object or array.
func (s *Scanner) Close(c byte) *Scanner {
	s.expect(c)
	s.comma = true
	return s
}

// More reports whether another element of the open array follows.
func (s *Scanner) More() bool {
	c := s.peek()
	return c != ']' && c != 0
}

// Key reads the next field's name, which must be name, and its colon.
func (s *Scanner) Key(name string) *Scanner {
	if !s.Field(name) && s.err == nil {
		if s.value(); s.peek() != '"' {
			s.failf("missing field %q", name)
		} else if got := s.String(); s.err == nil {
			s.Fail(fmt.Errorf("unknown field %q (want %q)", got, name))
		}
	}
	return s
}

// Field reads the next field's name and colon if the name is name, and
// reports whether it was: how a decoder reads a field its writer may omit.
func (s *Scanner) Field(name string) bool {
	i := s.skip(s.pos)
	if s.comma {
		if i == len(s.data) || s.data[i] != ',' {
			return false
		}
		i = s.skip(i + 1)
	}
	n := len(name)
	if s.err != nil || len(s.data)-i < n+2 || s.data[i] != '"' || s.data[i+n+1] != '"' || string(s.data[i+1:i+n+1]) != name {
		return false
	}
	s.pos, s.comma = i+n+2, false
	s.expect(':')
	return s.err == nil
}

// String reads a string.
func (s *Scanner) String() string {
	if s.value(); s.peek() != '"' {
		s.failf("want a string")
		return ""
	}
	end, plain := s.pos+1, true
	for ; end < len(s.data) && s.data[end] != '"'; end++ {
		if c := s.data[end]; c < ' ' || c >= utf8.RuneSelf || c == '\\' {
			plain = false
			if c == '\\' {
				end++
			}
		}
	}
	if end >= len(s.data) {
		s.failf("unterminated string")
		return ""
	}
	v := string(s.data[s.pos+1 : end])
	if !plain {
		v = s.unquote(s.data[s.pos : end+1])
	}
	s.pos, s.comma = end+1, true
	return v
}

// unquote is encoding/json's reading of the string token q: unescaped, with
// invalid UTF-8 replaced, as StrictUnmarshal reads it.
func (s *Scanner) unquote(q []byte) string {
	var v string
	if err := json.Unmarshal(q, &v); err != nil {
		s.failf("%v", err)
	}
	return v
}

// number reads a number token in JSON's grammar and returns its bytes.
func (s *Scanner) number() []byte {
	s.value()
	d, start := s.data, s.pos
	digits := func(i int) (int, bool) {
		j := i
		for j < len(d) && '0' <= d[j] && d[j] <= '9' {
			j++
		}
		return j, j > i
	}
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	ok := i < len(d) && '0' <= d[i] && d[i] <= '9'
	if i++; ok && d[i-1] != '0' {
		i, _ = digits(i)
	}
	if ok && i < len(d) && d[i] == '.' {
		i, ok = digits(i + 1)
	}
	if ok && i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		i, ok = digits(i)
	}
	if !ok || s.err != nil {
		s.failf("want a number")
		return nil
	}
	s.pos, s.comma = i, true
	return d[start:i]
}

// Int reads an integer, refusing a fraction or an exponent as encoding/json
// does for an integer field.
func (s *Scanner) Int() int64 {
	v, err := strconv.ParseInt(string(s.number()), 10, 64)
	s.check(err)
	return v
}

// HostInt reads an integer into an int, refusing one the host's int
// cannot hold — beyond ±2^31 on a 32-bit host — rather than wrapping it,
// as encoding/json refuses it for an int field.
func (s *Scanner) HostInt() int {
	v, err := strconv.ParseInt(string(s.number()), 10, strconv.IntSize)
	s.check(err)
	return int(v)
}

// Uint reads an unsigned integer.
func (s *Scanner) Uint() uint64 {
	v, err := strconv.ParseUint(string(s.number()), 10, 64)
	s.check(err)
	return v
}

// Float reads a number as a float64; one out of its range fails.
func (s *Scanner) Float() float64 {
	v, err := strconv.ParseFloat(string(s.number()), 64)
	s.check(err)
	return v
}

// check fails the scan with a parse's error, unless reading the token
// failed already.
func (s *Scanner) check(err error) {
	if err != nil && s.err == nil {
		s.failf("%v", err)
	}
}

// SkipFloat reads a number the decoder drops — a derived figure its writer
// recomputes — held to what Float accepts. One with no exponent and at most
// 300 bytes is within float64's range, so only another is parsed.
func (s *Scanner) SkipFloat() {
	if tok := s.number(); len(tok) > 300 || bytes.ContainsAny(tok, "eE") {
		_, err := strconv.ParseFloat(string(tok), 64)
		s.check(err)
	}
}

// SkipFloats reads an array of exactly n numbers the decoder drops.
func (s *Scanner) SkipFloats(n int) *Scanner {
	s.Open('[')
	for range n {
		s.SkipFloat()
	}
	return s.Close(']')
}

// SkipKeys reads the named fields, in order, each a number the decoder
// drops.
func (s *Scanner) SkipKeys(names ...string) *Scanner {
	for _, name := range names {
		s.Key(name).SkipFloat()
	}
	return s
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	s.value()
	for _, lit := range [...]string{"true", "false"} {
		if s.err == nil && bytes.HasPrefix(s.data[s.pos:], []byte(lit)) {
			s.pos, s.comma = s.pos+len(lit), true
			return lit == "true"
		}
	}
	s.failf("want a bool")
	return false
}

// Ints reads an array of exactly len(dst) integers into dst.
func (s *Scanner) Ints(dst []int64) *Scanner {
	s.Open('[')
	for i := range dst {
		dst[i] = s.Int()
	}
	return s.Close(']')
}

// Floats reads an array of exactly len(dst) numbers into dst.
func (s *Scanner) Floats(dst []float64) *Scanner {
	s.Open('[')
	for i := range dst {
		dst[i] = s.Float()
	}
	return s.Close(']')
}

// Raw reads any one value and returns its bytes, for a part of a document
// that is not a record (a report's spec) to go on to StrictUnmarshal.
func (s *Scanner) Raw() []byte {
	s.value()
	dec := json.NewDecoder(bytes.NewReader(s.data[s.pos:]))
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil && s.err == nil {
		s.failf("%v", err)
	}
	if s.err != nil {
		return nil
	}
	s.pos, s.comma = s.pos+int(dec.InputOffset()), true
	return raw
}

// Scanned is what a decoder returns: r, or the scan's failure.
func Scanned[R any](s *Scanner, r R) (R, error) {
	if s.err != nil {
		var zero R
		return zero, s.err
	}
	return r, nil
}

// Decode reads data, a document that is exactly one value, through scan.
func Decode[R any](data []byte, scan func(*Scanner) (R, error)) (R, error) {
	s := NewScanner(data)
	r, err := scan(s)
	s.Fail(err)
	s.End()
	return Scanned(s, r)
}

// AppendString appends s as a JSON string escaped exactly as encoding/json
// escapes it: a name of plain printable ASCII — every built-in name and
// every name the grid produces — is copied between quotes, and anything
// else (quotes, backslashes, control characters, <, >, &, non-ASCII,
// invalid UTF-8; synth scenario names are user input) is json.Marshal's to
// write.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(b, enc...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// AppendFloat appends f, finite (see CheckFinite), as encoding/json writes
// a float64: the shortest decimal that parses back to f, in exponent form
// below 1e-6 and from 1e21 up.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 is written e-9
		b = b[:n-1]
	}
	return b
}

// CheckFinite fails on a NaN or an infinity, as json.Marshal does, for an
// appender whose floats are not finite by construction.
func CheckFinite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	return nil
}

// AppendInts appends xs as a JSON array.
func AppendInts(b []byte, xs ...int64) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, ']')
}

// AppendFloats appends fs, finite, as a JSON array.
func AppendFloats(b []byte, fs ...float64) []byte {
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendFloat(b, f)
	}
	return append(b, ']')
}
