package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// maxBodyPresize caps the read buffer sized from a request's Content-Length.
// The header is the client's claim, not a measurement: a larger body still
// reads in full (up to MaxBodyBytes), growing the buffer as it arrives.
const maxBodyPresize = 256 << 10

// readBody reads a whole request body, presized from its declared length.
func readBody(body io.Reader, declared int64) ([]byte, error) {
	var buf bytes.Buffer
	// MinRead of slack lets the final Read report EOF without a regrow.
	buf.Grow(int(min(max(declared, 0), maxBodyPresize)) + bytes.MinRead)
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
}

// decodeRequest decodes a /v1/factfind body. encoding/json, with unknown
// fields refused and exactly one JSON value in the body, defines what the
// endpoint accepts. decodeCanonical is a one-pass scanner for the subset
// json.Marshal(Request) writes; it returns exactly what encoding/json would,
// and hands any body outside that subset to encoding/json unchanged, so the
// two paths never disagree (FuzzDecodeRequestMatchesJSON).
func decodeRequest(body []byte) (Request, error) {
	if req, ok := decodeCanonical(body); ok {
		return req, nil
	}
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("decode request: %w", err)
	}
	// A conforming payload is exactly one JSON object. Trailing data (a
	// second object, stray tokens) is a malformed request — and would also
	// poison the content-hash cache key, which covers only the decoded
	// fields — so reject it instead of silently ignoring it.
	if err := dec.Decode(&json.RawMessage{}); !errors.Is(err, io.EOF) {
		return Request{}, errors.New("decode request: unexpected data after the JSON payload")
	}
	return req, nil
}

// decodeCanonical parses body if it lies in the canonical subset: one
// object with Request's exact keys, each at most once, in any order; null
// only for the two slices; integers without fraction or exponent; strings
// of valid UTF-8 whose escapes are the JSON ones other than surrogate
// halves; JSON whitespace anywhere between tokens. ok is false for
// anything else, whether or not encoding/json would accept it.
func decodeCanonical(body []byte) (req Request, ok bool) {
	s := scanner{b: body}
	s.object(func(key []byte) int {
		switch string(key) {
		case "sources":
			req.Sources = s.intVal()
			return 1 << 0
		case "follows":
			req.Follows = s.follows()
			return 1 << 1
		case "messages":
			req.Messages = s.messages()
			return 1 << 2
		case "archive":
			req.Archive = s.str()
			return 1 << 3
		case "format":
			req.Format = s.str()
			return 1 << 4
		case "algorithm":
			req.Algorithm = s.str()
			return 1 << 5
		case "topK":
			req.TopK = s.intVal()
			return 1 << 6
		}
		return 0
	})
	s.ws()
	if s.bad || s.i != len(s.b) {
		return Request{}, false
	}
	return req, true
}

// scanner walks a body once. The first token outside the canonical subset
// sets bad; every method is then a no-op returning a zero value, and the
// loops above stop at their next check.
type scanner struct {
	b   []byte
	i   int
	bad bool
	// esc collects a string's bytes when it has escapes to resolve; reused
	// across strings.
	esc []byte
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and the byte c if it comes next.
func (s *scanner) consume(c byte) bool {
	if s.bad {
		return false
	}
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) expect(c byte) {
	if !s.consume(c) {
		s.bad = true
	}
}

// null consumes a null literal if one comes next.
func (s *scanner) null() bool {
	if s.bad {
		return false
	}
	s.ws()
	if bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += len("null")
		return true
	}
	return false
}

// key reads an object key and its colon. The key is returned as body
// bytes, so it must be escape-free: an escaped key goes to encoding/json.
func (s *scanner) key() []byte {
	s.expect('"')
	if s.bad {
		return nil
	}
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c == '"' {
			key := s.b[start:s.i]
			s.i++
			s.expect(':')
			return key
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		s.i++
	}
	s.bad = true
	return nil
}

// int64Val reads an integer: an optional minus and digits without a leading
// zero, within int64 (encoding/json's strconv.ParseInt bound).
func (s *scanner) int64Val() int64 {
	if s.bad {
		return 0
	}
	s.ws()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	start := i
	var n uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if n > (limit-d)/10 {
			s.bad = true
			return 0
		}
		n = n*10 + d
	}
	if i == start || b[start] == '0' && i-start > 1 {
		s.bad = true
		return 0
	}
	s.i = i
	if neg {
		return -int64(n)
	}
	return int64(n)
}

// intVal reads an integer that fits an int.
func (s *scanner) intVal() int {
	v := s.int64Val()
	if int64(int(v)) != v {
		s.bad = true
		return 0
	}
	return int(v)
}

// str reads a string into a fresh allocation: a message text can outlive
// the request in the result cache, and must not pin the body's buffer.
func (s *scanner) str() string {
	s.expect('"')
	if s.bad {
		return ""
	}
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			v := string(s.b[start:s.i])
			s.i++
			return v
		case c == '\\':
			return s.escaped(start)
		case c < 0x20:
			s.bad = true
			return ""
		case c < utf8.RuneSelf:
			s.i++
		default:
			if !s.rune() {
				return ""
			}
		}
	}
	s.bad = true
	return ""
}

// rune steps over one multi-byte UTF-8 sequence. Invalid UTF-8 is left to
// encoding/json, which replaces it with U+FFFD.
func (s *scanner) rune() bool {
	r, size := utf8.DecodeRune(s.b[s.i:])
	if r == utf8.RuneError && size == 1 {
		s.bad = true
		return false
	}
	s.i += size
	return true
}

// escaped finishes a string that began at start and whose first escape is
// at s.i, resolving escapes as encoding/json does. A \u escape naming a
// surrogate half is left to encoding/json: json.Marshal never writes one.
func (s *scanner) escaped(start int) string {
	out := append(s.esc[:0], s.b[start:s.i]...)
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			s.esc = out
			return string(out)
		case c == '\\':
			if s.i+1 >= len(s.b) {
				s.bad = true
				return ""
			}
			e := s.b[s.i+1]
			s.i += 2
			switch {
			case e == '"' || e == '\\' || e == '/':
				out = append(out, e)
			case e == 'u':
				r, ok := s.hex4()
				if !ok || r >= 0xD800 && r < 0xE000 {
					s.bad = true
					return ""
				}
				out = utf8.AppendRune(out, r)
			default:
				k := strings.IndexByte("bfnrt", e)
				if k < 0 {
					s.bad = true
					return ""
				}
				out = append(out, "\b\f\n\r\t"[k])
			}
		case c < 0x20:
			s.bad = true
			return ""
		case c < utf8.RuneSelf:
			out = append(out, c)
			s.i++
		default:
			from := s.i
			if !s.rune() {
				return ""
			}
			out = append(out, s.b[from:s.i]...)
		}
	}
	s.bad = true
	return ""
}

// hex4 reads the four hex digits of a \u escape.
func (s *scanner) hex4() (rune, bool) {
	if s.i+4 > len(s.b) {
		return 0, false
	}
	v, err := strconv.ParseUint(string(s.b[s.i:s.i+4]), 16, 16)
	s.i += 4
	return rune(v), err == nil
}

// object reads an object. field reads the value of each key and returns a
// bit of its own for each known key, or 0 for an unknown key. A repeated
// key is left to encoding/json, which lets it overwrite (or, for a slice of
// structs, merge into) the earlier value.
func (s *scanner) object(field func(key []byte) int) {
	s.expect('{')
	if s.consume('}') {
		return
	}
	seen := 0
	for !s.bad {
		bit := field(s.key())
		if bit == 0 || seen&bit != 0 {
			s.bad = true
			return
		}
		seen |= bit
		if !s.consume(',') {
			s.expect('}')
			return
		}
	}
}

// array reads an array, calling elem to read each element.
func (s *scanner) array(elem func()) {
	s.expect('[')
	if s.consume(']') {
		return
	}
	for !s.bad {
		elem()
		if !s.consume(',') {
			s.expect(']')
			return
		}
	}
}

// follows reads Request.Follows: null, or an array of two-integer arrays.
// A pair of any other length is left to encoding/json, which pads or
// truncates it into the [2]int.
func (s *scanner) follows() [][2]int {
	if s.null() {
		return nil
	}
	out := [][2]int{} // [] decodes to an empty, non-nil slice
	s.array(func() {
		var f [2]int
		s.expect('[')
		f[0] = s.intVal()
		s.expect(',')
		f[1] = s.intVal()
		s.expect(']')
		out = append(out, f)
	})
	return out
}

// messages reads Request.Messages: null, or an array of message objects.
func (s *scanner) messages() []Message {
	if s.null() {
		return nil
	}
	out := []Message{}
	s.array(func() {
		var m Message
		s.object(func(key []byte) int {
			switch string(key) {
			case "source":
				m.Source = s.intVal()
				return 1 << 0
			case "time":
				m.Time = s.int64Val()
				return 1 << 1
			case "text":
				m.Text = s.str()
				return 1 << 2
			}
			return 0
		})
		out = append(out, m)
	})
	return out
}
