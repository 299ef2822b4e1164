package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzFrame exercises the framing layer's two contracts at once. Round trip:
// any payload under the cap must survive WriteFrame → ReadFrame byte-exact.
// Truncation-vs-EOF discipline: a stream cut at any byte offset must be
// classified as clean io.EOF only when it ends exactly on a frame boundary
// with zero header bytes consumed — every other cut is io.ErrUnexpectedEOF.
// The raw-bytes leg feeds arbitrary input (including hostile length
// prefixes) straight into ReadFrame, which must fail typed, never panic and
// never allocate past MaxFrame.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte("hello"), uint32(3))
	f.Add([]byte{0, 0}, uint32(1))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint32(4))
	f.Fuzz(func(t *testing.T, payload []byte, cut uint32) {
		if len(payload) > MaxFrame {
			payload = payload[:MaxFrame]
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(payload), err)
		}
		framed := buf.Bytes()

		// Full stream: the payload round-trips byte-exact and the stream
		// then ends with a clean EOF.
		r := bytes.NewReader(framed)
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame after write: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip mismatch: wrote %d bytes, read %d", len(payload), len(got))
		}
		if _, err := ReadFrame(r); err != io.EOF {
			t.Fatalf("stream end: got %v, want io.EOF", err)
		}

		// Truncated stream: cut the frame at an arbitrary offset.
		n := int(cut % uint32(len(framed)+1))
		_, err = ReadFrame(bytes.NewReader(framed[:n]))
		switch {
		case n == 0:
			if err != io.EOF {
				t.Fatalf("empty stream: got %v, want io.EOF", err)
			}
		case n < len(framed):
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("cut at %d/%d: got %v, want io.ErrUnexpectedEOF", n, len(framed), err)
			}
		default:
			if err != nil {
				t.Fatalf("uncut stream: %v", err)
			}
		}

		// Hostile stream: the raw fuzz input as wire bytes. Any typed
		// outcome is fine; panics or unbounded allocation are not.
		raw, err := ReadFrame(bytes.NewReader(payload))
		switch {
		case err == nil:
			if len(raw) > MaxFrame {
				t.Fatalf("ReadFrame returned %d bytes, above the cap", len(raw))
			}
		case err == io.EOF, err == io.ErrUnexpectedEOF, errors.Is(err, ErrFrameTooLarge):
		default:
			t.Fatalf("ReadFrame(raw): unexpected error type %v", err)
		}
	})
}

// FuzzStreamFrame feeds arbitrary bytes to the stream's frame reader — what a
// hostile or half-dead peer can put on the socket. Any typed refusal is fine;
// a panic, an allocation past the cap, or a frame that does not re-encode to
// the bytes it was read from is not.
func FuzzStreamFrame(f *testing.F) {
	seed, _ := AppendStreamFrame(nil, StreamFrame{ID: 1, DeadlineMs: 250, Hops: 1, Payload: []byte(`{"txn":"t","key":"k"}`)})
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 12})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := bytes.NewReader(raw)
		fr, err := ReadStreamFrame(r)
		switch {
		case err == nil:
			if len(fr.Payload) > MaxFrame {
				t.Fatalf("ReadStreamFrame returned %d bytes, above the cap", len(fr.Payload))
			}
			again, err := AppendStreamFrame(nil, fr)
			if err != nil {
				t.Fatalf("re-encoding a frame that was read: %v", err)
			}
			if consumed := raw[:len(raw)-r.Len()]; !bytes.Equal(again, consumed) {
				t.Fatalf("frame re-encodes to %x, was read from %x", again, consumed)
			}
		case err == io.EOF:
			if len(raw) != 0 {
				t.Fatalf("clean EOF on %d bytes of input", len(raw))
			}
		case err == io.ErrUnexpectedEOF, errors.Is(err, ErrFrameTooLarge), errors.Is(err, errShortStreamFrame):
		default:
			t.Fatalf("ReadStreamFrame: unexpected error type %v", err)
		}
	})
}
