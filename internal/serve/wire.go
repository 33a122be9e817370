package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// wire.go is the /predict wire codec: a scanner that parses the canonical
// request shape directly into pooled buffers, and an append-based response
// encoder. Together they make the request→response cycle allocation-free in
// steady state — the serving analogue of the training arena (DESIGN.md §6).
//
// The decoder has the semantics of json.NewDecoder(body).Decode(&predictRequest{}),
// and the request grammar has one owner, encoding/json. The scanner takes
// only canonical bodies (scanCanonical lists the rules); every other body,
// valid or not, is decoded by encoding/json itself, so its accept/reject
// decision and error text are the stdlib's, and it counts in
// gmreg_serve_wire_fallback_total. FuzzPredictDecode checks that both agree.
//
// The encoder mirrors json.NewEncoder(w).Encode(predictResponse{...}) byte
// for byte: ES6-style float formatting (exponent form below 1e-6 and at/above
// 1e21, "e-09"→"e-9" cleanup), the trailing newline Encoder appends, and
// strings escaped exactly where encoding/json escapes them.

// wireBuf carries every per-request buffer of the /predict hot path: the raw
// body, the decoded model name and feature vector, the probability output,
// the encoded response, and the deadline timer. One Get/Put pair per request
// keeps the whole cycle allocation-free once the pool is warm.
type wireBuf struct {
	body     []byte    // raw request body
	model    []byte    // decoded model name (then the resolved default)
	features []float64 // decoded feature vector
	featNil  bool      // features was absent or JSON null (nil slice semantics)
	probs    []float64 // softmax output, handed to the predictor queue
	out      []byte    // encoded response
	timer    *time.Timer

	// capAtGet snapshots capBytes at checkout so putWireBuf can count only
	// fresh growth in gmreg_serve_alloc_bytes_total.
	capAtGet int64
}

// capBytes is the total backing-array footprint of the buffer set.
func (wb *wireBuf) capBytes() int64 {
	return int64(cap(wb.body)) + int64(cap(wb.model)) +
		int64(cap(wb.out)) + 8*int64(cap(wb.features)+cap(wb.probs))
}

// Wire-pool traffic counters, exported as gmreg_serve_wire_* and
// gmreg_serve_alloc_bytes_total (metrics.go). In steady state gets climbs
// while misses and alloc bytes stay flat — the zero-allocation signature.
// wireFallbacks counts the bodies decoded by encoding/json rather than the
// canonical scanner: the share of traffic that pays for allocation.
var (
	wirePool       sync.Pool
	wireGets       atomic.Int64
	wireMisses     atomic.Int64
	wireAllocBytes atomic.Int64
	wireFallbacks  atomic.Int64
)

func getWireBuf() *wireBuf {
	wireGets.Add(1)
	wb, _ := wirePool.Get().(*wireBuf)
	if wb == nil {
		wireMisses.Add(1)
		wb = &wireBuf{}
	}
	wb.capAtGet = wb.capBytes()
	return wb
}

// putWireBuf recycles wb. Callers must NOT return a buffer whose request was
// abandoned mid-flight (timeout/cancel): a batch executor may still write
// into probs after the handler returned, so those buffers are leaked to the
// GC instead (counted by gmreg_serve_abandoned_total).
func putWireBuf(wb *wireBuf) {
	if d := wb.capBytes() - wb.capAtGet; d > 0 {
		wireAllocBytes.Add(d)
	}
	wirePool.Put(wb)
}

// errBodyTooLarge marks a body that exceeded ServerConfig.MaxPredictBody;
// the handler maps it to a counted 413.
var errBodyTooLarge = errors.New("request body too large")

// readBody reads r to EOF into wb.body, failing as soon as the body exceeds
// limit bytes.
func (wb *wireBuf) readBody(r io.Reader, limit int64) error {
	wb.body = wb.body[:0]
	for {
		if len(wb.body) == cap(wb.body) {
			wb.body = growBytes(wb.body, 512)
		}
		n, err := r.Read(wb.body[len(wb.body):cap(wb.body)])
		wb.body = wb.body[:len(wb.body)+n]
		if int64(len(wb.body)) > limit {
			return errBodyTooLarge
		}
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		}
	}
}

// growBytes returns s with room for at least n more bytes.
func growBytes(s []byte, n int) []byte {
	need := len(s) + n
	newCap := max(2*cap(s), need, 512)
	ns := make([]byte, len(s), newCap)
	copy(ns, s)
	return ns
}

// decodePredict parses one JSON value from data into wb.model/wb.features
// with the semantics of json.NewDecoder(...).Decode(&predictRequest{}). A
// canonical body decodes without allocating; any other body is handed to a
// json.Decoder unchanged, and its error, if any, is returned as it is. (Not
// json.Unmarshal: a Decoder ignores bytes after the first value, as the
// handler always has.)
func (wb *wireBuf) decodePredict(data []byte) error {
	if wb.scanCanonical(data) {
		return nil
	}
	wireFallbacks.Add(1)
	var req predictRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return err
	}
	wb.model = append(wb.model[:0], req.Model...)
	wb.features = append(wb.features[:0], req.Features...)
	wb.featNil = req.Features == nil
	return nil
}

// scanCanonical parses data into wb and reports true when data is a
// canonical request:
//
//   - one object whose keys are exactly "model" and "features", in either
//     order, each at most once and each optional ({} included);
//   - a model string of printable ASCII without \ escapes;
//   - features an array of numbers in the RFC 8259 grammar that
//     strconv.ParseFloat converts without a range error;
//   - JSON whitespace anywhere between tokens and after the object.
//
// It never rejects a body: anything else — an invalid body, but also a
// valid one with a duplicate or unknown key, a null, an escape, or a number
// such as 1e999 — reports false, and wb must then be decoded again.
func (wb *wireBuf) scanCanonical(data []byte) bool {
	wb.model, wb.features, wb.featNil = wb.model[:0], wb.features[:0], true
	s := scanner{data: data}
	if !s.consume('{') {
		return false
	}
	if !s.consume('}') {
		var sawModel, sawFeatures bool
		for {
			ok := false
			switch {
			case !sawModel && s.key(`"model"`):
				sawModel = true
				wb.model, ok = s.plainString(wb.model)
			case !sawFeatures && s.key(`"features"`):
				sawFeatures, wb.featNil = true, false
				wb.features, ok = s.numbers(wb.features)
			}
			if !ok {
				return false
			}
			if s.consume('}') {
				break
			}
			if !s.consume(',') {
				return false
			}
		}
	}
	s.skipSpace()
	return s.i == len(s.data)
}

// scanner is a cursor over one request body.
type scanner struct {
	data []byte
	i    int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then the byte c, if c is next.
func (s *scanner) consume(c byte) bool {
	s.skipSpace()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// accept consumes the next byte if it is one of set.
func (s *scanner) accept(set string) bool {
	for j := 0; j < len(set) && s.i < len(s.data); j++ {
		if s.data[s.i] == set[j] {
			s.i++
			return true
		}
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	i := s.i
	for i < len(s.data) && '0' <= s.data[i] && s.data[i] <= '9' {
		i++
	}
	n := i - s.i
	s.i = i
	return n
}

// key consumes the quoted key q and the colon after it, or nothing at all,
// so that a failed match leaves the cursor for the next candidate key.
func (s *scanner) key(q string) bool {
	start := s.i
	s.skipSpace()
	if rest := s.data[s.i:]; len(rest) >= len(q) && string(rest[:len(q)]) == q {
		s.i += len(q)
		if s.consume(':') {
			return true
		}
	}
	s.i = start
	return false
}

// plainString appends to buf the contents of a string of printable ASCII
// without escapes.
func (s *scanner) plainString(buf []byte) ([]byte, bool) {
	if !s.consume('"') {
		return buf, false
	}
	for start := s.i; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; {
		case c == '"':
			s.i++
			return append(buf, s.data[start:s.i-1]...), true
		case c < 0x20 || c > 0x7e || c == '\\':
			return buf, false
		}
	}
	return buf, false
}

// numbers appends to buf the elements of an array of numbers.
func (s *scanner) numbers(buf []float64) ([]float64, bool) {
	if !s.consume('[') {
		return buf, false
	}
	if s.consume(']') {
		return buf, true
	}
	for {
		f, ok := s.number()
		if !ok {
			return buf, false
		}
		buf = append(buf, f)
		if s.consume(']') {
			return buf, true
		}
		if !s.consume(',') {
			return buf, false
		}
	}
}

// number scans one number in the strict RFC 8259 grammar (no leading zeros,
// `.` and exponent each followed by a digit) and converts it with
// strconv.ParseFloat, which is what encoding/json does for float64 targets.
func (s *scanner) number() (float64, bool) {
	s.skipSpace()
	start := s.i
	s.accept("-")
	if !s.accept("0") && s.digits() == 0 {
		return 0, false
	}
	if s.accept(".") && s.digits() == 0 {
		return 0, false
	}
	if s.accept("eE") {
		s.accept("+-")
		if s.digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(bytesToString(s.data[start:s.i]), 64)
	return f, err == nil
}

// bytesToString views b as a string without copying. Safe here because the
// string never outlives the call it is passed to (strconv.ParseFloat does
// not retain its argument) and b is not mutated meanwhile.
func bytesToString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// ---------------------------------------------------------------------------
// Response encoding

// errNonFiniteProb marks a response that encoding/json could not represent
// either; the handler maps it to a counted 500.
var errNonFiniteProb = errors.New("serve: non-finite probability in response")

// appendPredictResponse appends exactly the bytes
// json.NewEncoder(w).Encode(predictResponse{...}) would write — field order,
// HTML escaping, ES6 float formatting, and the trailing newline included.
func appendPredictResponse(dst []byte, model []byte, label int, probs []float64, seq int, hash string) ([]byte, error) {
	dst = append(dst, `{"model":`...)
	dst = appendJSONString(dst, model)
	dst = append(dst, `,"label":`...)
	dst = strconv.AppendInt(dst, int64(label), 10)
	dst = append(dst, `,"probs":`...)
	if probs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, p := range probs {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			dst, err = appendJSONFloat(dst, p)
			if err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"version":{"seq":`...)
	dst = strconv.AppendInt(dst, int64(seq), 10)
	dst = append(dst, `,"hash":`...)
	dst = appendJSONString(dst, hash)
	dst = append(dst, '}', '}', '\n')
	return dst, nil
}

// appendJSONFloat appends f the way encoding/json renders float64: %f inside
// [1e-6, 1e21), shortest %e outside, with the stdlib's "e-09" → "e-9"
// exponent cleanup. Non-finite values are the same encode error the stdlib
// raises.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errNonFiniteProb
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendJSONString appends s as a quoted JSON string with the bytes
// encoding/json's HTML-escaping encoder writes. Printable ASCII without `"`,
// `\`, `<`, `>` or `&` — every store key and version hash in practice —
// needs no escape and is copied as it is; any other string is encoded by
// json.Marshal, so only an unusual key pays for the allocation.
func appendJSONString[T []byte | string](dst []byte, s T) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(string(s)) // marshaling a string cannot fail
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
