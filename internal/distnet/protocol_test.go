package distnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"gmreg/internal/models"
)

func mustFrame(t *testing.T, ft FrameType, v any) []byte {
	t.Helper()
	var payload []byte
	if v != nil {
		var err error
		payload, err = encodePayload(v)
		if err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, ft, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	step := Step{
		Seq: 7, Epoch: 2, MemberEpoch: 3, N: 16,
		Params: [][]float64{{1, 2}, {3}},
		Stats:  [][]float64{{0.5}, {0.25}},
		Shards: []Shard{{Index: 1, Shape: []int{2, 3}, X: []float64{1, 2, 3, 4, 5, 6}, Y: []int{0, 1}}},
	}
	raw := mustFrame(t, FrameStep, step)
	ft, payload, n, err := ReadFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameStep || n != len(raw) {
		t.Fatalf("got frame %s, %d bytes; want step, %d", ft, n, len(raw))
	}
	var got Step
	if err := decodePayload(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seq != step.Seq || got.N != step.N || len(got.Shards) != 1 ||
		got.Shards[0].Index != 1 || got.Shards[0].X[5] != 6 {
		t.Fatalf("round trip mangled the step: %+v", got)
	}

	// Equal logical state must produce equal bytes (the serialization
	// contract the bit-identity CI comparisons lean on).
	if !bytes.Equal(raw, mustFrame(t, FrameStep, step)) {
		t.Fatal("same payload encoded to different bytes")
	}

	// Payload-less frames round trip too.
	raw = mustFrame(t, FramePong, nil)
	ft, payload, _, err = ReadFrame(bytes.NewReader(raw))
	if err != nil || ft != FramePong || len(payload) != 0 {
		t.Fatalf("pong round trip: type %s payload %d err %v", ft, len(payload), err)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	w := Welcome{Slot: 3, Spec: models.Spec{Family: "mlp", In: 5, Hidden: 4, Classes: 2}}
	raw := mustFrame(t, FrameWelcome, w)
	_, payload, _, err := ReadFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var got Welcome
	if err := decodePayload(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("welcome round trip: got %+v want %+v", got, w)
	}
}

// TestReadFrameErrors is the typed-error table: every malformed input maps
// to a specific sentinel, never a panic.
func TestReadFrameErrors(t *testing.T) {
	valid := mustFrame(t, FrameHello, Hello{Name: "x"})

	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return b
	}
	cases := []struct {
		name  string
		input []byte
		want  error
	}{
		{"clean EOF", nil, io.EOF},
		{"truncated header", valid[:headerLen-5], ErrTruncated},
		{"truncated payload", valid[:len(valid)-1], ErrTruncated},
		{"bad magic", corrupt(func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"unknown type zero", corrupt(func(b []byte) { b[6] = 0 }), ErrUnknownFrame},
		{"unknown type high", corrupt(func(b []byte) { b[6] = 200 }), ErrUnknownFrame},
		{"oversized length", corrupt(func(b []byte) {
			binary.BigEndian.PutUint32(b[7:], MaxPayload+1)
		}), ErrFrameTooLarge},
		{"corrupt payload", corrupt(func(b []byte) { b[len(b)-1] ^= 0xff }), ErrChecksum},
		{"corrupt checksum", corrupt(func(b []byte) { b[12] ^= 0xff }), ErrChecksum},
	}
	for _, tc := range cases {
		_, _, _, err := ReadFrame(bytes.NewReader(tc.input))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// Version 99 is a peer from the future; version 1 is a trainer built
	// while Welcome still carried the partition grain, which would compute
	// other shard gradients if it were let in.
	for _, v := range []uint16{99, 1} {
		skew := corrupt(func(b []byte) { binary.BigEndian.PutUint16(b[4:], v) })
		var ve *VersionError
		if _, _, _, err := ReadFrame(bytes.NewReader(skew)); !errors.As(err, &ve) {
			t.Errorf("version %d skew: got %v, want VersionError", v, err)
		} else if ve.Got != v || ve.Want != protoVersion {
			t.Errorf("version %d skew: %+v", v, ve)
		} else if !strings.Contains(ve.Error(), fmt.Sprint(v)) {
			t.Errorf("version error message: %q", ve.Error())
		}
	}

	// The oversized-length rejection must happen before any allocation: a
	// header claiming 4 GiB arrives alone and still returns promptly.
	huge := append([]byte(nil), valid[:headerLen]...)
	binary.BigEndian.PutUint32(huge[7:], 0xffffffff)
	if _, _, _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("4 GiB claim: got %v, want ErrFrameTooLarge", err)
	}
}

func TestWriteFrameRejectsUnknownType(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, 0, nil); !errors.Is(err, ErrUnknownFrame) {
		t.Errorf("type 0: got %v", err)
	}
	if _, err := WriteFrame(&buf, frameMax, nil); !errors.Is(err, ErrUnknownFrame) {
		t.Errorf("type frameMax: got %v", err)
	}
	if buf.Len() != 0 {
		t.Error("rejected frame still wrote bytes")
	}
}

func TestFrameTypeString(t *testing.T) {
	for ft, want := range map[FrameType]string{
		FrameHello: "hello", FrameWelcome: "welcome", FrameStep: "step",
		FrameGrads: "grads", FramePing: "ping", FramePong: "pong",
		FrameBye: "bye", FrameDone: "done", FrameType(77): "frame(77)",
	} {
		if got := ft.String(); got != want {
			t.Errorf("FrameType(%d).String() = %q, want %q", ft, got, want)
		}
	}
}

// TestReadFrameMultiple checks framing survives back-to-back frames on one
// stream and reports clean EOF at the boundary.
func TestReadFrameMultiple(t *testing.T) {
	var stream bytes.Buffer
	stream.Write(mustFrame(t, FrameHello, Hello{Name: "a"}))
	stream.Write(mustFrame(t, FrameBye, nil))
	r := bytes.NewReader(stream.Bytes())
	if ft, _, _, err := ReadFrame(r); err != nil || ft != FrameHello {
		t.Fatalf("first frame: %s %v", ft, err)
	}
	if ft, _, _, err := ReadFrame(r); err != nil || ft != FrameBye {
		t.Fatalf("second frame: %s %v", ft, err)
	}
	if _, _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
}
