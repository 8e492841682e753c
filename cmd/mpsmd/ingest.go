package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"

	mpsm "repro"
)

// The body of POST /v1/relations is one JSON object,
//
//	{"name": string, "tuples": [[key, payload], …]}    explicit tuples, or
//	{"name": string, "generate": {"size": n, "seed": n, "foreign_key_of": string}}
//
// with its members in any order, white space wherever JSON allows it, member
// names matched the way encoding/json matches them (case-insensitively),
// unknown members skipped, "tuples":null and "generate":null meaning absent,
// and key and payload unsigned decimal integers of at most 2^64−1 with no
// sign, fraction, exponent or leading zero. relationScanner reads it in one
// pass through one fixed block, appending each pair to the []mpsm.Tuple the
// catalog will hold; the small members go through encoding/json on their own
// bytes, at most maxMemberBytes each. It accepts nothing encoding/json would
// reject, and is stricter in three places where decoding into [][2]uint64
// silently changes the data: a tuple must have exactly two elements ([7]
// decodes with payload 0, [7,8,9] drops the 9), null may stand for neither a
// tuple nor a number (both decode as 0), and "name", "tuples" and "generate"
// may each appear once (the last one wins).

const (
	// scanBlock is the size of the one buffer an upload is read through.
	scanBlock = 64 << 10
	// maxMemberBytes bounds a member name and every member value except
	// tuples: those are handed to encoding/json whole.
	maxMemberBytes = 4 << 10
	// maxNumberBytes is the longest valid number: 2^64−1 has 20 digits.
	maxNumberBytes = 20
	// tupleBytes is unsafe.Sizeof(mpsm.Tuple{}).
	tupleBytes = 16
	// sampleTuples is the capacity the tuple slice starts with: once that many
	// tuples have been scanned, their share of Content-Length sizes the rest.
	sampleTuples = scanBlock / tupleBytes
)

// What a relationScanner refuses beyond bad syntax; ingestError wraps them.
var (
	errTupleArity      = errors.New("a tuple is [key, payload]: exactly two elements")
	errNullTuple       = errors.New("null cannot stand for a tuple or a number")
	errDuplicateMember = errors.New("duplicate member")
	errTooManyTuples   = errors.New("relation exceeds the tuple limit")
	errMemberTooLarge  = fmt.Errorf("member exceeds %d bytes", maxMemberBytes)
	errEndOfBody       = errors.New("unexpected end of body")
)

// ingestError is every failure of an upload: the HTTP status it maps to, how
// far into the body the scanner was, and the index of the tuple it was
// scanning (the number of tuples accepted before it; -1 outside the array).
type ingestError struct {
	Status int
	Offset int64
	Tuple  int
	Err    error
}

func (e *ingestError) Error() string {
	if e.Tuple < 0 {
		return fmt.Sprintf("%v (byte %d)", e.Err, e.Offset)
	}
	return fmt.Sprintf("%v (byte %d, tuple %d)", e.Err, e.Offset, e.Tuple)
}

func (e *ingestError) Unwrap() error { return e.Err }

// relationUpload is a decoded and validated POST /v1/relations body: a name
// and exactly one of Tuples (non-nil, possibly empty) and Generate.
type relationUpload struct {
	Name     string
	Tuples   []mpsm.Tuple
	Generate *generateSpec
}

// relationScanner decodes one upload. The zero value is not usable; see
// newRelationScanner.
type relationScanner struct {
	r io.Reader
	// renew runs before every read of r: the handler pushes the connection's
	// read deadline out with it, so a long upload lives and a stalled one dies.
	renew func()
	// maxTuples is asked once, when the tuples array opens, how many tuples
	// the relation may hold; name is empty if the body has not named it yet.
	maxTuples func(name string) int
	// contentLength is the body's declared size, or -1.
	contentLength int64

	buf      []byte
	pos, end int   // buf[pos:end] is read and not yet scanned
	base     int64 // offset in the body of buf[0]
	eof      bool
	// err is why peek returned 0: the body ended (errEndOfBody) or could not
	// be read. Once set it stays.
	err   error
	tuple int // see ingestError.Tuple
	limit int // maxTuples' answer
}

func newRelationScanner(r io.Reader, contentLength int64, maxTuples func(name string) int, renew func()) *relationScanner {
	return &relationScanner{
		r: r, renew: renew, maxTuples: maxTuples, contentLength: contentLength,
		buf: make([]byte, scanBlock), tuple: -1,
	}
}

// fail positions err at the byte the scanner stands on.
func (s *relationScanner) fail(status int, err error) error {
	return &ingestError{Status: status, Offset: s.base + int64(s.pos), Tuple: s.tuple, Err: err}
}

func (s *relationScanner) syntax(format string, args ...any) error {
	return s.fail(http.StatusBadRequest, fmt.Errorf(format, args...))
}

// unexpected is the error for peek's byte not being what the grammar wants
// there: what stopped peek if something did, a syntax error otherwise.
func (s *relationScanner) unexpected(want string) error {
	if s.err != nil {
		return s.err
	}
	return s.syntax("expected %s, found %q", want, s.buf[s.pos])
}

// fill moves the unscanned bytes to the front of the block and reads more
// behind them. At the end of the body it sets eof and adds nothing.
func (s *relationScanner) fill() {
	copy(s.buf, s.buf[s.pos:s.end])
	s.base += int64(s.pos)
	s.end -= s.pos
	s.pos = 0
	for empty := 0; empty < 100; empty++ { // the bound io.Reader suggests for (0, nil)
		s.renew()
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		switch {
		case err == io.EOF:
			s.eof = true
			return
		case errors.Is(err, os.ErrDeadlineExceeded):
			s.err = s.fail(http.StatusRequestTimeout, fmt.Errorf("body stalled: %w", err))
			return
		case err != nil:
			s.err = s.fail(http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
			return
		case n > 0:
			return
		}
	}
	s.err = s.fail(http.StatusBadRequest, io.ErrNoProgress)
}

// ensure makes at least n bytes available to scan, or all that is left of the
// body. n must be well under scanBlock.
func (s *relationScanner) ensure(n int) error {
	for s.end-s.pos < n && !s.eof && s.err == nil {
		s.fill()
	}
	return s.err
}

// peek skips white space and returns the byte after it without consuming it,
// or 0 with err set if there is none.
func (s *relationScanner) peek() byte {
	if s.pos < s.end && s.buf[s.pos] > ' ' {
		return s.buf[s.pos] // a compact body never gets past here
	}
	return s.skipSpace()
}

func (s *relationScanner) skipSpace() byte {
	for s.err == nil {
		for s.pos < s.end {
			c := s.buf[s.pos]
			if c != ' ' && c != '\n' && c != '\t' && c != '\r' {
				return c
			}
			s.pos++
		}
		if s.eof {
			s.err = s.fail(http.StatusBadRequest, errEndOfBody)
		} else {
			s.fill()
		}
	}
	return 0
}

// expect consumes the byte want, which what describes.
func (s *relationScanner) expect(want byte, what string) error {
	if s.peek() != want {
		return s.unexpected(what)
	}
	s.pos++
	return nil
}

// decode scans the whole body. On error nothing of it is to be used.
func (s *relationScanner) decode() (*relationUpload, error) {
	var (
		up   relationUpload
		seen [3]bool // name, tuples, generate
	)
	once := func(member int, key string) error {
		if seen[member] {
			return s.fail(http.StatusBadRequest, fmt.Errorf("%w %q", errDuplicateMember, key))
		}
		seen[member] = true
		return nil
	}
	if err := s.expect('{', "the request object"); err != nil {
		return nil, err
	}
	for c := s.peek(); c != '}'; c = s.peek() {
		if c != '"' {
			return nil, s.unexpected("a member name")
		}
		var key string
		err := s.member(&key)
		if err == nil {
			err = s.expect(':', "':' after a member name")
		}
		switch {
		case err != nil:
		case strings.EqualFold(key, "name"):
			if err = once(0, key); err == nil {
				err = s.member(&up.Name)
			}
		case strings.EqualFold(key, "tuples"):
			if err = once(1, key); err == nil {
				up.Tuples, err = s.tuples(up.Name)
			}
		case strings.EqualFold(key, "generate"):
			if err = once(2, key); err == nil {
				err = s.member(&up.Generate)
			}
		default:
			err = s.member(nil)
		}
		if err != nil {
			return nil, err
		}
		switch s.peek() {
		case ',':
			s.pos++
			if s.peek() == '}' {
				return nil, s.unexpected("a member name")
			}
		case '}':
		default:
			return nil, s.unexpected("',' or '}' after a member")
		}
	}
	s.pos++ // the '}'
	if s.peek() != 0 || s.err == nil {
		return nil, s.unexpected("the end of the body")
	}
	switch {
	case !errors.Is(s.err, errEndOfBody):
		return nil, s.err
	case up.Name == "":
		return nil, s.syntax("relation name is required")
	case (up.Tuples == nil) == (up.Generate == nil):
		return nil, s.syntax("provide exactly one of tuples or generate")
	}
	return &up, nil
}

// member scans one JSON value of at most maxMemberBytes and decodes it into
// into with encoding/json; a nil into only checks that the value is valid.
func (s *relationScanner) member(into any) error {
	s.peek()
	if err := s.ensure(maxMemberBytes + 1); err != nil {
		return err
	}
	rest := s.buf[s.pos:s.end]
	n := valueExtent(rest)
	switch {
	case n > maxMemberBytes, n < 0 && len(rest) > maxMemberBytes:
		return s.fail(http.StatusRequestEntityTooLarge, errMemberTooLarge)
	case n < 0:
		return s.fail(http.StatusBadRequest, errEndOfBody)
	}
	raw := rest[:n]
	if into == nil {
		if !json.Valid(raw) {
			return s.syntax("invalid value %.40q", raw)
		}
	} else if err := json.Unmarshal(raw, into); err != nil {
		return s.syntax("%v", err)
	}
	s.pos += n
	return nil
}

// valueExtent returns how many bytes of b the JSON value starting at b[0]
// spans, or -1 if it does not end within b. It only balances brackets and
// quotes; whether those bytes are valid JSON is for encoding/json to say.
func valueExtent(b []byte) int {
	depth := 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if i >= len(b) {
				return -1
			}
			if depth == 0 {
				return i + 1
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i // a scalar, ended by its container's bracket
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\n', '\t', '\r':
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// tuples scans the value of "tuples": null, or an array of pairs. It returns
// nil only for null.
func (s *relationScanner) tuples(name string) ([]mpsm.Tuple, error) {
	if s.peek() == 'n' {
		var null any
		return nil, s.member(&null)
	}
	if err := s.expect('[', "an array of tuples"); err != nil {
		return nil, err
	}
	s.tuple, s.limit = 0, max(0, s.maxTuples(name))
	defer func() { s.tuple = -1 }()
	// A tuple is at least the six bytes of "[0,0],".
	first := min(sampleTuples, s.limit)
	if s.contentLength >= 0 {
		first = min(first, int(s.contentLength/6)+1)
	}
	dst := make([]mpsm.Tuple, 0, first)

	if s.peek() == ']' {
		s.pos++
		return dst, nil
	}
	for {
		if len(dst) == cap(dst) {
			var err error
			if dst, err = s.grow(dst); err != nil {
				return nil, err
			}
		}
		switch s.peek() {
		case '[':
			s.pos++
		case 'n':
			return nil, s.fail(http.StatusBadRequest, errNullTuple)
		default:
			return nil, s.unexpected("a tuple")
		}
		key, err := s.number()
		if err == nil {
			err = s.separator(',')
		}
		if err != nil {
			return nil, err
		}
		payload, err := s.number()
		if err == nil {
			err = s.separator(']')
		}
		if err != nil {
			return nil, err
		}
		dst = append(dst, mpsm.Tuple{Key: key, Payload: payload})
		s.tuple++

		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			// The catalog keeps this slice for as long as the relation lives:
			// a guess that left more than an eighth of it unused is paid for
			// with one copy now.
			if cap(dst)-len(dst) > len(dst)/8 {
				dst = append(make([]mpsm.Tuple, 0, len(dst)), dst...)
			}
			return dst, nil
		default:
			return nil, s.unexpected("',' or ']' after a tuple")
		}
	}
}

// grow makes room in a full dst. The first time — dst holds the sample — it
// guesses the relation's size from the bytes those tuples took out of
// Content-Length, plus a sixteenth; after a guess that proved short, or with
// no Content-Length, it grows by a quarter as append would. It never grows
// past the limit.
func (s *relationScanner) grow(dst []mpsm.Tuple) ([]mpsm.Tuple, error) {
	n := len(dst)
	if n >= s.limit {
		return nil, s.fail(http.StatusRequestEntityTooLarge, fmt.Errorf("%w of %d", errTooManyTuples, s.limit))
	}
	more := int64(max(n/4, sampleTuples))
	if scanned := s.base + int64(s.pos); n == sampleTuples && s.contentLength > scanned {
		guess := int64(n) * (s.contentLength / scanned) // no overflow, whatever length is declared
		guess += int64(n) * (s.contentLength % scanned) / scanned
		more = max(more, guess+guess/16-int64(n))
	}
	grown := make([]mpsm.Tuple, n, n+int(min(more, int64(s.limit-n))))
	copy(grown, dst)
	return grown, nil
}

// separator consumes want — the ',' between a tuple's elements or the ']'
// after them. Finding the other one means the tuple has one element or three.
func (s *relationScanner) separator(want byte) error {
	switch s.peek() {
	case want:
		s.pos++
		return nil
	case ',', ']':
		return s.fail(http.StatusBadRequest, errTupleArity)
	}
	return s.unexpected(fmt.Sprintf("%q after a number", want))
}

// number scans an unsigned decimal integer.
func (s *relationScanner) number() (uint64, error) {
	c := s.peek()
	// With the whole number and the byte after it in the block, the digit
	// loop needs no refill.
	if s.end-s.pos <= maxNumberBytes {
		if err := s.ensure(maxNumberBytes + 1); err != nil {
			return 0, err
		}
	}
	digits := s.buf[s.pos:s.end]
	var v uint64
	i := 0
	for ; i < len(digits); i++ {
		d := digits[i] - '0'
		if d > 9 {
			break
		}
		if i >= maxNumberBytes-1 && (i >= maxNumberBytes || v > (math.MaxUint64-uint64(d))/10) {
			return 0, s.syntax("number exceeds 2^64-1")
		}
		v = v*10 + uint64(d)
	}
	switch {
	case i > 1 && digits[0] == '0':
		return 0, s.syntax("number has a leading zero")
	case i > 0:
		s.pos += i
		return v, nil
	case c == 'n':
		return 0, s.fail(http.StatusBadRequest, errNullTuple)
	case c == ']':
		return 0, s.fail(http.StatusBadRequest, errTupleArity)
	}
	return 0, s.unexpected("an unsigned integer")
}
