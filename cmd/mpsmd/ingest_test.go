package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	mpsm "repro"
)

// scan runs the scanner over body with a fixed tuple limit, the way the
// handler does minus the HTTP.
func scan(body []byte, limit int) (*relationUpload, error) {
	return scanFrom(bytes.NewReader(body), len(body), limit)
}

func scanFrom(r io.Reader, contentLength, limit int) (*relationUpload, error) {
	return newRelationScanner(r, int64(contentLength), func(string) int { return limit }, func() {}).decode()
}

// uploadBody is a tuples upload as the benchmark's client writes it for
// join_large: no white space, keys below 2^32 and payloads below 10^6.
func uploadBody(name string, n int) []byte {
	return tuplesBody(name, drawTuples(n, func(x uint64) uint64 { return x >> 32 }))
}

// skewBody is join_large_skew's S as the benchmark's client writes it: keys
// below 2^20, 80 % of them in the lowest fifth, laid out in eight ascending
// key ranges; payloads below 10^6.
func skewBody(name string, n int) []byte {
	const domain, hot = 1 << 20, (1 << 20) / 5
	tuples := drawTuples(n, func(x uint64) uint64 {
		if x>>8%10 < 8 {
			return x >> 40 % hot
		}
		return hot + x>>40%(domain-hot)
	})
	slices.SortStableFunc(tuples, func(a, b mpsm.Tuple) int { return cmp.Compare(a.Key/(domain/8), b.Key/(domain/8)) })
	return tuplesBody(name, tuples)
}

// drawTuples is n tuples of keys key(x) and payloads below 10^6, x a
// fixed-seed linear congruential sequence.
func drawTuples(n int, key func(x uint64) uint64) []mpsm.Tuple {
	tuples := make([]mpsm.Tuple, n)
	x := uint64(1)
	for i := range tuples {
		x = x*6364136223846793005 + 1442695040888963407
		tuples[i] = mpsm.Tuple{Key: key(x), Payload: x >> 16 % 1_000_000}
	}
	return tuples
}

// tuplesBody is the upload of tuples with no white space.
func tuplesBody(name string, tuples []mpsm.Tuple) []byte {
	body := append(strconv.AppendQuote([]byte(`{"name":`), name), `,"tuples":[`...)
	for i, t := range tuples {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendUint(append(body, '['), t.Key, 10)
		body = strconv.AppendUint(append(body, ','), t.Payload, 10)
		body = append(body, ']')
	}
	return append(body, "]}"...)
}

// digitsBody is n tuples with no white space whose keys and payloads cycle
// through every length from 1 to 20 digits, MaxUint64 among them.
func digitsBody(name string, n int) []byte {
	tuples := drawTuples(n, func(x uint64) uint64 { return x })
	for i := range tuples {
		tuples[i].Key >>= i % 64
		tuples[i].Payload = tuples[i].Key>>(i*7%64) ^ uint64(i)
	}
	tuples[n/2].Key = math.MaxUint64
	return tuplesBody(name, tuples)
}

// decodeCases is the upload grammar by example: what must stay accepted, what
// must stay rejected, and the inputs encoding/json takes but mangles, which
// the scanner refuses (strict names the reason). The fuzz targets start from
// these bodies.
var decodeCases = []struct {
	name   string
	body   string
	want   *relationUpload // nil: rejected with 400
	strict error           // rejected although encoding/json accepts
}{
	{name: "plain", body: `{"name":"r","tuples":[[1,10],[2,20]]}`,
		want: &relationUpload{Name: "r", Tuples: []mpsm.Tuple{{Key: 1, Payload: 10}, {Key: 2, Payload: 20}}}},
	{name: "white space everywhere", body: " \n{\t\"name\" :\r\"r\" , \"tuples\" : [ [ 1 , 10 ] ,\n[ 2\t,20 ]\n] }\n ",
		want: &relationUpload{Name: "r", Tuples: []mpsm.Tuple{{Key: 1, Payload: 10}, {Key: 2, Payload: 20}}}},
	{name: "tuples before name", body: `{"tuples":[[3,4]],"name":"late"}`,
		want: &relationUpload{Name: "late", Tuples: []mpsm.Tuple{{Key: 3, Payload: 4}}}},
	{name: "empty tuples", body: `{"name":"r","tuples":[]}`,
		want: &relationUpload{Name: "r", Tuples: []mpsm.Tuple{}}},
	{name: "null tuples with generate", body: `{"tuples":null,"generate":{"size":5,"seed":9,"foreign_key_of":"p"},"name":"g"}`,
		want: &relationUpload{Name: "g", Generate: &generateSpec{Size: 5, Seed: 9, ForeignKeyOf: "p"}}},
	{name: "null generate with tuples", body: `{"name":"r","generate":null,"tuples":[[0,0]]}`,
		want: &relationUpload{Name: "r", Tuples: []mpsm.Tuple{{}}}},
	{name: "max uint64", body: `{"name":"r","tuples":[[18446744073709551615,0],[0,18446744073709551615]]}`,
		want: &relationUpload{Name: "r", Tuples: []mpsm.Tuple{{Key: math.MaxUint64}, {Payload: math.MaxUint64}}}},
	{name: "unknown members are skipped", body: `{"comment":{"a":[1,"]}",{}]},"name":"r","n":1e3,"tuples":[[1,2]],"z":null}`,
		want: &relationUpload{Name: "r", Tuples: []mpsm.Tuple{{Key: 1, Payload: 2}}}},
	{name: "member names fold like encoding/json", body: `{"NAME":"r","Tupleſ":[[1,2]]}`,
		want: &relationUpload{Name: "r", Tuples: []mpsm.Tuple{{Key: 1, Payload: 2}}}},
	{name: "escaped name", body: `{"name":"a\"bé\n","tuples":[]}`,
		want: &relationUpload{Name: "a\"bé\n", Tuples: []mpsm.Tuple{}}},

	{name: "negative", body: `{"name":"r","tuples":[[-1,2]]}`},
	{name: "fraction", body: `{"name":"r","tuples":[[1.0,2]]}`},
	{name: "exponent", body: `{"name":"r","tuples":[[1,1e3]]}`},
	{name: "leading zero", body: `{"name":"r","tuples":[[01,2]]}`},
	{name: "2^64", body: `{"name":"r","tuples":[[18446744073709551616,2]]}`},
	{name: "21 digits", body: `{"name":"r","tuples":[[1,100000000000000000000]]}`},
	{name: "string number", body: `{"name":"r","tuples":[["1",2]]}`},
	{name: "trailing garbage", body: `{"name":"r","tuples":[[1,2]]}x`},
	{name: "second object", body: `{"name":"r","tuples":[[1,2]]}{}`},
	{name: "truncated in a number", body: `{"name":"r","tuples":[[1,2],[3`},
	{name: "truncated after the array", body: `{"name":"r","tuples":[[1,2]]`},
	{name: "truncated in a name", body: `{"name":"r`},
	{name: "empty body", body: ``},
	{name: "trailing comma in tuples", body: `{"name":"r","tuples":[[1,2],]}`},
	{name: "trailing comma in object", body: `{"name":"r","tuples":[[1,2]],}`},
	{name: "missing comma between tuples", body: `{"name":"r","tuples":[[1,2][3,4]]}`},
	{name: "tuples is an object", body: `{"name":"r","tuples":{}}`},
	{name: "tuple is a number", body: `{"name":"r","tuples":[1,2]}`},
	{name: "name is a number", body: `{"name":7,"tuples":[]}`},
	{name: "invalid unknown member", body: `{"name":"r","x":[1,},"tuples":[]}`},
	{name: "generate.size is a fraction", body: `{"name":"r","generate":{"size":1.5}}`},
	{name: "top-level array", body: `[]`},
	{name: "top-level null", body: `null`},
	{name: "no name", body: `{"tuples":[[1,2]]}`},
	{name: "neither tuples nor generate", body: `{"name":"r"}`},
	{name: "both tuples and generate", body: `{"name":"r","tuples":[],"generate":{"size":1}}`},

	{name: "one-element tuple", body: `{"name":"r","tuples":[[7]]}`, strict: errTupleArity},
	{name: "three-element tuple", body: `{"name":"r","tuples":[[7,8,9]]}`, strict: errTupleArity},
	{name: "empty tuple", body: `{"name":"r","tuples":[[]]}`, strict: errTupleArity},
	{name: "null tuple", body: `{"name":"r","tuples":[null]}`, strict: errNullTuple},
	{name: "null number", body: `{"name":"r","tuples":[[1,null]]}`, strict: errNullTuple},
	{name: "second tuples member", body: `{"name":"r","tuples":[[1,2]],"tuples":[[3,4]]}`, strict: errDuplicateMember},
	{name: "tuples after null tuples", body: `{"name":"r","tuples":null,"tuples":[[3,4]]}`, strict: errDuplicateMember},
	{name: "second name, other case", body: `{"name":"r","Name":"q","tuples":[]}`, strict: errDuplicateMember},
}

// TestDecodeRelationGrammar pins decodeCases, and for each that encoding/json
// is the reference: it agrees on every accepted and every plainly rejected
// body, and accepts the strict ones.
func TestDecodeRelationGrammar(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := scan([]byte(tc.body), 1000)
			ref, refErr := referenceDecode([]byte(tc.body))
			switch {
			case tc.want != nil:
				if err != nil || !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("scan = %+v, %v; want %+v", got, err, tc.want)
				}
				if refErr != nil || !reflect.DeepEqual(ref, tc.want) {
					t.Fatalf("encoding/json = %+v, %v; want %+v", ref, refErr, tc.want)
				}
			case tc.strict != nil:
				if !errors.Is(err, tc.strict) {
					t.Fatalf("scan error = %v, want %v", err, tc.strict)
				}
				if refErr != nil {
					t.Fatalf("not a strict case: encoding/json rejects it too: %v", refErr)
				}
			default:
				if err == nil || refErr == nil {
					t.Fatalf("scan error = %v, encoding/json error = %v; both must reject", err, refErr)
				}
			}
			if err != nil {
				var ie *ingestError
				if !errors.As(err, &ie) || ie.Status != http.StatusBadRequest ||
					ie.Offset < 0 || ie.Offset > int64(len(tc.body)) {
					t.Fatalf("error %#v: want a 400 ingestError positioned inside the body", err)
				}
			}
		})
	}
}

// TestDecodeRelationErrorPosition: a refused body names the byte the scanner
// stopped at and the tuple it was in, also when they lie many blocks in.
func TestDecodeRelationErrorPosition(t *testing.T) {
	good := uploadBody("r", 20_000) // several scan blocks
	bad := append(bytes.TrimSuffix(good, []byte("]}")), `,[5,-6]]}`...)
	_, err := scan(bad, 1<<20)
	var ie *ingestError
	if !errors.As(err, &ie) {
		t.Fatalf("error = %v, want an ingestError", err)
	}
	if want := int64(bytes.LastIndexByte(bad, '-')); ie.Status != 400 || ie.Offset != want || ie.Tuple != 20_000 {
		t.Fatalf("error = %v: status %d at byte %d in tuple %d, want 400 at byte %d in tuple 20000",
			ie, ie.Status, ie.Offset, ie.Tuple, want)
	}
	if _, err := scan([]byte(`{"name":"r","tuples":[[1,2]],"name":"q"}`), 10); !errors.As(err, &ie) || ie.Tuple != -1 {
		t.Fatalf("error outside the array = %v, want tuple -1", err)
	}
}

// TestDecodeRelationCanonicalHandOff: a tuple off the canonical form, planted
// in a canonical body at tuple 5 000 and again across the first block edge,
// is read or refused exactly as the general path reads or refuses it: the
// relation encoding/json decodes, or the tuple's own error — its status, byte
// offset, tuple index and message.
func TestDecodeRelationCanonicalHandOff(t *testing.T) {
	const (
		arity = "a tuple is [key, payload]: exactly two elements"
		null  = "null cannot stand for a tuple or a number"
		zero  = "number has a leading zero"
		over  = "number exceeds 2^64-1"
		end   = "unexpected end of body"
	)
	tuples := drawTuples(8000, func(x uint64) uint64 { return x >> 32 })
	for _, tc := range []struct {
		name string
		text string // replaces "[key,payload]," of one tuple
		err  string // empty if the body is accepted
		at   int    // the error's offset in text
		past int    // the error's tuple index past the planted tuple's
		cut  bool   // the body ends with text
	}{
		{name: "space after [", text: "[ 7,8],"},
		{name: "newline after [", text: "[\n7,8],"},
		{name: "space after the comma", text: "[7, 8],"},
		{name: "newline after the comma", text: "[7,\n8],"},
		{name: "space after ]", text: "[7,8] ,"},
		{name: "newline after ]", text: "[7,8]\n,"},
		{name: "space before the next tuple", text: "[7,8], "},
		{name: "space after 7 and 15 digits", text: "[1234567 ,123456789012345 ],"},
		{name: "zeros", text: "[0,0],"},
		{name: "8 and 9 digits", text: "[12345678,123456789],"},
		{name: "16 digits", text: "[9999999999999999,1000000000000000],"},
		{name: "17 digits", text: "[10000000000000000,99999999999999999],"},
		{name: "19 digits", text: "[1234567890123456789,9999999999999999999],"},
		{name: "20 digits", text: "[10000000000000000000,12345678901234567890],"},
		{name: "max uint64", text: "[18446744073709551615,18446744073709551615],"},

		{name: "leading zero key", text: "[07,8],", err: zero, at: 1},
		{name: "leading zero payload", text: "[7,08],", err: zero, at: 3},
		{name: "leading zero, 16 digits", text: "[0123456789012345,8],", err: zero, at: 1},
		{name: "2^64 key", text: "[18446744073709551616,8],", err: over, at: 1},
		{name: "2^64 payload", text: "[7,18446744073709551616],", err: over, at: 3},
		{name: "21 digits", text: "[100000000000000000000,8],", err: over, at: 1},
		{name: "null tuple", text: "null,", err: null},
		{name: "null key", text: "[null,8],", err: null, at: 1},
		{name: "null payload", text: "[7,null],", err: null, at: 3},
		{name: "one element", text: "[7],", err: arity, at: 2},
		{name: "three elements", text: "[7,8,9],", err: arity, at: 4},
		{name: "three elements, spaced", text: "[7,8 ,9],", err: arity, at: 5},
		{name: "no element", text: "[],", err: arity, at: 1},
		{name: "missing ] before ,", text: "[7,8,", err: arity, at: 4},
		{name: "missing ] before [", text: "[7,8", err: `expected ']' after a number, found '['`, at: 4},
		{name: "colon after a key", text: "[7:8],", err: `expected ',' after a number, found ':'`, at: 2},
		{name: "colon after a payload", text: "[7,8:],", err: `expected ']' after a number, found ':'`, at: 4},
		{name: "slash after a key", text: "[7/,8],", err: `expected ',' after a number, found '/'`, at: 2},

		{name: "ends after [", text: "[", err: end, at: 1, cut: true},
		{name: "ends in a key", text: "[7", err: end, at: 2, cut: true},
		{name: "ends after the comma", text: "[7,", err: end, at: 3, cut: true},
		{name: "ends in a payload", text: "[7,8", err: end, at: 4, cut: true},
		{name: "ends after ]", text: "[7,8]", err: end, at: 5, past: 1, cut: true},
		{name: "ends after the tuple's ,", text: "[7,8],", err: end, at: 6, past: 1, cut: true},
	} {
		// At tuple 5 000, and at the tuple that puts the first block edge in
		// the middle of text (the name is padded to start it there).
		edge := scanBlock - (len(tc.text)+1)/2
		for _, at := range []struct {
			name      string
			tuple, to int
		}{{"tuple 5000", 5000, -1}, {"block edge", -1, edge}} {
			t.Run(tc.name+"/"+at.name, func(t *testing.T) {
				body, k, start := plantedBody(tuples, at.tuple, at.to, tc.text, tc.cut)
				got, err := scan(body, 1<<20)
				var ie *ingestError
				switch {
				case tc.err == "":
					want, refErr := referenceDecode(body)
					if refErr != nil || err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("scan error %v, encoding/json error %v, or the relations differ", err, refErr)
					}
				case !errors.As(err, &ie):
					t.Fatalf("error = %v, want an ingestError", err)
				case ie.Status != http.StatusBadRequest || ie.Offset != int64(start+tc.at) ||
					ie.Tuple != k+tc.past || ie.Err.Error() != tc.err:
					t.Fatalf("error: status %d at byte %d in tuple %d: %q; want 400 at byte %d in tuple %d: %q",
						ie.Status, ie.Offset, ie.Tuple, ie.Err, start+tc.at, k+tc.past, tc.err)
				}
			})
		}
	}
}

// TestCanonicalTakesEveryDigitWidth drives relationScanner.canonical itself,
// which no answer reveals — the general path reads the same tuples, about half
// as fast. One block holds canonical tuples whose keys and payloads have every
// length from 1 to 16 digits, every digit value in turn, so that digits fall
// in every byte of both words canonicalNumber reads. The loop must take every
// tuple whose 36-byte window lies in the block, each with its value, and stop
// exactly at the first whose window leaves it: none where the block ends with
// the last 36-byte tuple, the first of a tail of three short tuples behind
// it; and with room for fewer tuples in dst, stop when dst is full.
func TestCanonicalTakesEveryDigitWidth(t *testing.T) {
	var body []byte
	var want []mpsm.Tuple
	var starts []int // offset of each tuple, and the body's end
	digits := 0
	number := func(n int) uint64 {
		text := []byte{byte('1' + digits%9)} // no leading zero
		for len(text) < n {
			text = append(text, byte('0'+(digits+len(text))%10))
		}
		digits++
		v, err := strconv.ParseUint(string(text), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	add := func(tup mpsm.Tuple) {
		starts = append(starts, len(body))
		body = fmt.Appendf(body, "[%d,%d],", tup.Key, tup.Payload)
		want = append(want, tup)
	}
	for kl := 1; kl <= 16; kl++ {
		for pl := 1; pl <= 16; pl++ {
			for rep := 0; rep < 2; rep++ {
				add(mpsm.Tuple{Key: number(kl), Payload: number(pl)})
			}
		}
	}
	grid := len(want) // the last one is 36 bytes long
	for i := range 3 {
		add(mpsm.Tuple{Key: uint64(i + 1), Payload: uint64(9 - i)})
	}
	starts = append(starts, len(body))

	for _, tc := range []struct {
		tuples, room, stop int
	}{
		{tuples: grid, room: grid, stop: grid},           // the last window ends with the block
		{tuples: len(want), room: len(want), stop: grid}, // the tail's first window leaves it
		{tuples: len(want), room: 300, stop: 300},        // dst is full
	} {
		s := newRelationScanner(bytes.NewReader(nil), -1, nil, func() {})
		s.end = copy(s.buf, body[:starts[tc.tuples]])
		s.tuple = 0
		got := s.canonical(make([]mpsm.Tuple, 0, tc.room))
		if len(got) != tc.stop || s.tuple != tc.stop || s.pos != starts[tc.stop] {
			t.Fatalf("%+v: took %d tuples (tuple index %d) and stopped at byte %d; want %d, stopping at byte %d of %d",
				tc, len(got), s.tuple, s.pos, tc.stop, starts[tc.stop], s.end)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%+v: tuple %d (%q) reads %v, want %v", tc, i, body[starts[i]:starts[i+1]], got[i], want[i])
			}
		}
	}
}

// TestDecodeRelationFailedReadMidArray: the bytes a failed read still
// returned are scanned by the general path, which needs more of them for the
// payload of the first tuple and so reports the read error — not the null
// after that tuple, which the canonical loop would have run into.
func TestDecodeRelationFailedReadMidArray(t *testing.T) {
	head := `{"name":"r","tuples":[` + strings.Repeat(" ", maxMemberBytes+100) // past the members' look-ahead
	rest := `[1234567890123456,7],null,[1,2],[3,4`
	broken := errors.New("connection reset")
	_, err := scanFrom(&failingReader{parts: []string{head, rest}, err: broken}, len(head)+len(rest)+10, 10)
	var ie *ingestError
	if !errors.As(err, &ie) || !errors.Is(err, broken) || ie.Offset != int64(len(head)) || ie.Tuple != 0 {
		t.Fatalf("error = %v, want the read error at byte %d in tuple 0", err, len(head))
	}
}

// failingReader returns its parts one a Read, the last together with err.
type failingReader struct {
	parts []string
	err   error
}

func (f *failingReader) Read(p []byte) (int, error) {
	n := copy(p, f.parts[0])
	if f.parts = f.parts[1:]; len(f.parts) == 0 {
		return n, f.err
	}
	return n, nil
}

// plantedBody is the canonical upload of tuples with text in place of tuple
// k and the ',' after it, and nothing after text if cut. A negative k is the
// last tuple that can start at byte to, the name padded so that it does. It
// returns the body, k and the offset of text in the body.
func plantedBody(tuples []mpsm.Tuple, k, to int, text string, cut bool) ([]byte, int, int) {
	tuple := func(b []byte, t mpsm.Tuple) []byte {
		b = strconv.AppendUint(append(b, '['), t.Key, 10)
		return append(strconv.AppendUint(append(b, ','), t.Payload, 10), "],"...)
	}
	name := "r"
	if k < 0 {
		start := len(`{"name":"r","tuples":[`)
		for k = 0; start+len(tuple(nil, tuples[k])) <= to; k++ {
			start += len(tuple(nil, tuples[k]))
		}
		name += strings.Repeat("p", to-start)
	}
	body := []byte(`{"name":"` + name + `","tuples":[`)
	for _, t := range tuples[:k] {
		body = tuple(body, t)
	}
	start := len(body)
	body = append(body, text...)
	if !cut {
		for _, t := range tuples[k+1:] {
			body = tuple(body, t)
		}
		body = append(body[:len(body)-1], "]}"...)
	}
	return body, k, start
}

// referenceDecode is what the handler did before the scanner, minus its
// tolerance for trailing data: encoding/json into the wire struct, the same
// validation, then the copy into tuples.
func referenceDecode(body []byte) (*relationUpload, error) {
	var req createRelationRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if req.Name == "" || (req.Tuples == nil) == (req.Generate == nil) {
		return nil, errors.New("invalid request")
	}
	up := &relationUpload{Name: req.Name, Generate: req.Generate}
	if req.Tuples != nil {
		up.Tuples = make([]mpsm.Tuple, len(req.Tuples))
		for i, t := range req.Tuples {
			up.Tuples[i] = mpsm.Tuple{Key: t[0], Payload: t[1]}
		}
	}
	return up, nil
}

// FuzzDecodeRelation holds the scanner against encoding/json: what it accepts,
// encoding/json accepts with the same name, tuples and generator; what
// encoding/json rejects, it rejects; where it alone rejects, the reason is
// one of the documented strict cases or a limit; and it never holds more
// tuples than the limit it was given.
func FuzzDecodeRelation(f *testing.F) {
	for _, tc := range decodeCases {
		f.Add([]byte(tc.body), 4)
	}
	f.Add(uploadBody("sampled", sampleTuples+100), sampleTuples+100) // past the size guess
	f.Add(uploadBody("over", 10), 9)
	// Canonical bodies long enough for the canonical loop, whose mutations
	// land in it: keys and payloads of 1–20 digits, MaxUint64 among them.
	f.Add(digitsBody("digits", 300), 1000)
	f.Add(digitsBody("digits", 500), 400)
	f.Add(uploadBody("keys", 300), 1000)
	f.Add(skewBody("skew", 300), 1000)
	f.Fuzz(func(t *testing.T, body []byte, limit int) {
		limit = max(0, limit) % (2 * sampleTuples)
		got, err := scan(body, limit)
		want, wantErr := referenceDecode(body)
		switch {
		case err == nil && wantErr != nil:
			t.Fatalf("scanner accepts %+v, encoding/json rejects: %v", got, wantErr)
		case err == nil:
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scanner = %+v, encoding/json = %+v", got, want)
			}
			if len(got.Tuples) > limit || cap(got.Tuples) > limit {
				t.Fatalf("%d tuples (cap %d) over the limit of %d", len(got.Tuples), cap(got.Tuples), limit)
			}
		case wantErr == nil:
			var ie *ingestError
			if !errors.As(err, &ie) {
				t.Fatalf("error %#v is not an ingestError", err)
			}
			strict := errors.Is(err, errTupleArity) || errors.Is(err, errNullTuple) || errors.Is(err, errDuplicateMember)
			if !strict && ie.Status != http.StatusRequestEntityTooLarge {
				t.Fatalf("scanner rejects what encoding/json accepts as %+v: %v", want, err)
			}
		}
	})
}

// TestDecodeRelationStopsAtTheLimit: a body over the tuple limit is refused
// with 413 at the first tuple over it, having read no more than one block
// past that tuple however long the body is.
func TestDecodeRelationStopsAtTheLimit(t *testing.T) {
	const limit = 3000
	body := uploadBody("r", 40*limit)
	if up, err := scan(uploadBody("r", limit), limit); err != nil || len(up.Tuples) != limit {
		t.Fatalf("a body at the limit: %v", err)
	}

	src := &countingReader{r: bytes.NewReader(body)}
	_, err := scanFrom(src, len(body), limit)
	var ie *ingestError
	if !errors.As(err, &ie) || !errors.Is(err, errTooManyTuples) ||
		ie.Status != http.StatusRequestEntityTooLarge || ie.Tuple != limit {
		t.Fatalf("error = %v, want 413 errTooManyTuples at tuple %d", err, limit)
	}
	if src.n > ie.Offset+scanBlock {
		t.Fatalf("read %d bytes of %d; the tuple over the limit starts at %d", src.n, len(body), ie.Offset)
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestUploadAllocatesLittleMoreThanItStores: scanning a 1M-tuple body
// allocates at most 1.25 × the stored tuples plus the scan block and the
// sample buffer, and what it stores wastes at most an eighth of its length —
// for any reader chunking and also when the first block misleads the guess.
func TestUploadAllocatesLittleMoreThanItStores(t *testing.T) {
	const n = 1 << 20
	body := uploadBody("r", n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	up, err := scan(body, 2*n)
	runtime.ReadMemStats(&after)
	if err != nil || len(up.Tuples) != n {
		t.Fatalf("scan: %d tuples, %v", len(up.Tuples), err)
	}
	stored := uint64(n * tupleBytes)
	if got, most := after.TotalAlloc-before.TotalAlloc, stored*5/4+scanBlock+sampleTuples*tupleBytes+4096; got > most {
		t.Errorf("scanning allocated %d bytes for %d stored, want at most %d", got, stored, most)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"uniform", body},
		{"short tuples first", append(append([]byte(`{"name":"r","tuples":[`+strings.Repeat("[0,0],", 50_000)),
			bytes.Repeat([]byte("[18446744073709551615,18446744073709551615],"), 50_000)...), "[1,1]]}"...)},
		{"long tuples first", append(append([]byte(`{"name":"r","tuples":[`+strings.Repeat("[18446744073709551615,18446744073709551615],", 50_000)),
			bytes.Repeat([]byte("[0,0],"), 50_000)...), "[1,1]]}"...)},
		{"three tuples", []byte(`{"name":"r","tuples":[[1,2],[3,4],[5,6]]}`)},
	} {
		up, err := scan(tc.body, 2*n)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if l, c := len(up.Tuples), cap(up.Tuples); c-l > l/8 {
			t.Errorf("%s: stored slice has len %d, cap %d: more than an eighth unused", tc.name, l, c)
		}
	}
}

// TestDecodeRelationAcrossBlockBoundaries: the answer does not depend on where
// the reader cuts the body — one byte at a time, or blocks of any size — with
// white space between the tuples or none, where the cuts fall inside tuples
// the canonical loop takes.
func TestDecodeRelationAcrossBlockBoundaries(t *testing.T) {
	for name, body := range map[string][]byte{
		"white space": bytes.ReplaceAll(uploadBody("r", 9000), []byte("],["), []byte("] ,\n[")),
		"canonical":   uploadBody("r", 9000),
		"1-20 digits": digitsBody("r", 6000),
	} {
		want, err := referenceDecode(body)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 7, 4096, scanBlock - 1, scanBlock + 1} {
			got, err := scanFrom(&chunkReader{b: body, chunk: chunk}, len(body), 1<<20)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s in chunks of %d: %v, or a different relation", name, chunk, err)
			}
		}
	}
}

// chunkReader hands out b at most chunk bytes a Read, with a (0, nil) Read
// now and then, as io.Reader allows.
type chunkReader struct {
	b     []byte
	chunk int
	reads int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.reads++; c.reads%5 == 0 {
		return 0, nil
	}
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.b[:min(c.chunk, len(c.b))])
	c.b = c.b[n:]
	return n, nil
}

// limitedServer is newTestServer with the catalog limits set by the test.
func limitedServer(t *testing.T, maxRelationTuples int, maxCatalogBytes int64) *httptest.Server {
	t.Helper()
	ts, _ := startTestServer(t, func(s *server) {
		s.maxRelationTuples, s.maxCatalogBytes = maxRelationTuples, maxCatalogBytes
	})
	return ts
}

// listRelations is GET /v1/relations as name → rows.
func listRelations(t *testing.T, url string) map[string]int {
	t.Helper()
	resp, err := http.Get(url + "/v1/relations")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []relationInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int, len(infos))
	for _, in := range infos {
		out[in.Name] = in.Rows
	}
	return out
}

// TestServerDerivesCatalogLimits: the limits come from the service's
// admission limit, and from nothing else.
func TestServerDerivesCatalogLimits(t *testing.T) {
	svc := mpsm.NewService(mpsm.New(), mpsm.WithMaxMemory(48<<20))
	defer svc.Close()
	srv := newServer(svc)
	if srv.maxRelationTuples != 1<<20 || srv.maxCatalogBytes != 48<<20 {
		t.Fatalf("limits under -max-memory 48 MiB = %d tuples, %d bytes; want 1 Mi tuples (a join budgets 48 B a row), 48 MiB",
			srv.maxRelationTuples, srv.maxCatalogBytes)
	}
}

// TestServerCatalogLimits: an upload or a generate over the per-relation
// limit is 413; so is one the catalog has no room for, and then the relation
// it would have replaced is still served; replacing a relation credits its
// bytes; a refused upload registers nothing.
func TestServerCatalogLimits(t *testing.T) {
	ts := limitedServer(t, 100, 150*tupleBytes)
	url := ts.URL + "/v1/relations"
	tuples := func(n int, key uint64) [][2]uint64 {
		out := make([][2]uint64, n)
		for i := range out {
			out[i] = [2]uint64{key, uint64(i)}
		}
		return out
	}

	// Per relation: 100 tuples fit, 101 do not, uploaded or generated.
	var uerr uploadError
	if code := post(t, url, createRelationRequest{Name: "a", Tuples: tuples(101, 1)}, &uerr); code != http.StatusRequestEntityTooLarge || uerr.Tuple != 100 || uerr.Offset == 0 {
		t.Fatalf("101 tuples: status %d, error %+v; want 413 at tuple 100", code, uerr)
	}
	if code := post(t, url, createRelationRequest{Name: "a", Generate: &generateSpec{Size: 101}}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("generate 101: status %d, want 413", code)
	}
	if code := post(t, url, createRelationRequest{Name: "a", Generate: &generateSpec{Size: 1_000_000_000_000}}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("generate 10^12: status %d, want 413", code)
	}
	if got := listRelations(t, ts.URL); len(got) != 0 {
		t.Fatalf("refused uploads registered %v", got)
	}
	if code := post(t, url, createRelationRequest{Name: "a", Tuples: tuples(100, 1)}, nil); code != http.StatusCreated {
		t.Fatalf("100 tuples: status %d, want 201", code)
	}

	// Catalog: a holds 100 of the 150 tuples' worth; b may take 50, not 51.
	if code := post(t, url, createRelationRequest{Name: "b", Tuples: tuples(51, 2)}, &uerr); code != http.StatusRequestEntityTooLarge || uerr.Tuple != 50 {
		t.Fatalf("b over the catalog: status %d, error %+v; want 413 at tuple 50", code, uerr)
	}
	if code := post(t, url, createRelationRequest{Name: "b", Generate: &generateSpec{Size: 51}}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("generate b over the catalog: status %d, want 413", code)
	}
	if code := post(t, url, createRelationRequest{Name: "b", Tuples: tuples(50, 2)}, nil); code != http.StatusCreated {
		t.Fatalf("b within the catalog: status %d, want 201", code)
	}

	// Replacing b counts b's bytes as free: 50 fit again, 51 still do not —
	// whether the body names the relation before its tuples or after, when
	// only registration can tell — and the refused replacement leaves the old
	// b in place and joinable.
	if code := post(t, url, createRelationRequest{Name: "b", Tuples: tuples(51, 3)}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("replacing b with 51: status %d, want 413", code)
	}
	late, _ := json.Marshal(tuples(51, 3))
	resp, err := http.Post(url, "application/json", strings.NewReader(`{"tuples":`+string(late)+`,"name":"b"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("replacing b with 51, named last: status %d, want 413", resp.StatusCode)
	}
	var res joinResponse
	if code := post(t, ts.URL+"/v1/join", joinRequest{R: "b", S: "b"}, &res); code != http.StatusOK || res.Matches != 50*50 {
		t.Fatalf("old b after refused replacements: status %d, %d matches; want 2500", code, res.Matches)
	}
	if code := post(t, url, createRelationRequest{Name: "b", Tuples: tuples(50, 3)}, nil); code != http.StatusCreated {
		t.Fatalf("replacing b with 50: status %d, want 201", code)
	}
	if code := post(t, url, createRelationRequest{Name: "b", Tuples: tuples(10, 4)}, nil); code != http.StatusCreated {
		t.Fatalf("shrinking b: status %d, want 201", code)
	}
	if code := post(t, url, createRelationRequest{Name: "c", Tuples: tuples(40, 5)}, nil); code != http.StatusCreated {
		t.Fatalf("c in the room b gave back: status %d, want 201", code)
	}
	if got, want := listRelations(t, ts.URL), map[string]int{"a": 100, "b": 10, "c": 40}; !reflect.DeepEqual(got, want) {
		t.Fatalf("catalog = %v, want %v", got, want)
	}
}

// TestServerRefusesMangledTuples: the three bodies the old decoder stored
// wrong are 400 over HTTP, with the position in the error body.
func TestServerRefusesMangledTuples(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []string{
		`{"name":"x","tuples":[[1,2],[7]]}`,
		`{"name":"x","tuples":[[1,2],[7,8,9]]}`,
		`{"name":"x","tuples":[[1,2]],"tuples":[[7,8]]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/relations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var uerr uploadError
		err = json.NewDecoder(resp.Body).Decode(&uerr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || uerr.Offset < 20 || uerr.Error == "" {
			t.Errorf("%s: status %d, error body %+v (%v); want 400 with an offset", body, resp.StatusCode, uerr, err)
		}
	}
	if got := listRelations(t, ts.URL); len(got) != 0 {
		t.Fatalf("refused uploads registered %v", got)
	}
}

// TestServerTimesOutStalledBodies: a client that sends half a body and then
// nothing gets 408 once the body deadline passes, on every POST route, and
// its relation is not registered. The deadline is a few milliseconds so the
// test is quick; nothing is asserted about how long anything took.
func TestServerTimesOutStalledBodies(t *testing.T) {
	ts, _ := startTestServer(t, func(s *server) { s.bodyTimeout = 5 * time.Millisecond })
	upload := uploadBody("stalled", 10_000) // several blocks, cut mid-array
	for _, tc := range []struct{ path, body string }{
		{"/v1/relations", string(upload[:len(upload)/2])},
		{"/v1/relations", `{"name":"stalled","generate":{"size":`},
		{"/v1/join", `{"r":"a",`},
		{"/v1/query", `{"query":"ans(K, V) :- `},
	} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		// Declare twice what is sent, then go quiet.
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			tc.path, 2*len(tc.body), tc.body)
		status, err := io.ReadAll(io.LimitReader(conn, 12))
		conn.Close()
		if err != nil || string(status) != "HTTP/1.1 408" {
			t.Errorf("%s with a stalled body: response starts %q (%v), want HTTP/1.1 408", tc.path, status, err)
		}
	}
	if got := listRelations(t, ts.URL); len(got) != 0 {
		t.Fatalf("stalled uploads registered %v", got)
	}
}

// TestServerJoinOutlivesBodyDeadline: the body deadline covers the body only.
// A join that runs longer than it is not canceled when it expires (it would
// be, through the server's watch for a disconnect, under a
// http.Server.ReadTimeout or a deadline still set after the body).
func TestServerJoinOutlivesBodyDeadline(t *testing.T) {
	ts, _ := startTestServer(t, func(s *server) { s.bodyTimeout = 20 * time.Millisecond })
	for _, req := range []createRelationRequest{
		{Name: "r", Generate: &generateSpec{Size: 300_000, Seed: 1}},
		{Name: "s", Generate: &generateSpec{Size: 1_200_000, Seed: 2, ForeignKeyOf: "r"}},
	} {
		if code := post(t, ts.URL+"/v1/relations", req, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", req.Name, code)
		}
	}
	for i := 0; i < 3; i++ {
		var res joinResponse
		if code := post(t, ts.URL+"/v1/join", joinRequest{R: "r", S: "s", Workers: 1}, &res); code != http.StatusOK {
			t.Fatalf("join %d: status %d", i, code)
		}
		if res.TotalMillis <= 20 {
			t.Skipf("join took %.2f ms: too fast to outlive the deadline", res.TotalMillis)
		}
	}
}

// BenchmarkDecodeRelation scans 2^20-tuple bodies shaped like the
// benchmark's uploads, payloads below 10^6 in all of them: join_large's
// (keys of up to 10 digits), join_large_skew's S (up to 7, clustered), and
// join_large's again with white space between the tuples, which the
// canonical loop hands to the general path tuple by tuple.
func BenchmarkDecodeRelation(b *testing.B) {
	const n = 1 << 20
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"join_large", uploadBody("r", n)},
		{"join_large_skew", skewBody("r", n)},
		{"white_space", bytes.ReplaceAll(uploadBody("r", n), []byte("],["), []byte("] ,\n["))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			for b.Loop() {
				if _, err := scan(bc.body, 2*n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
