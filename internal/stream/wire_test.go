package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := Request{
		V:       ProtocolVersion,
		Type:    "append",
		Session: "s1",
		Events: []Event{
			{Proc: 1, VC: []int64{0, 3, 2}, Truth: true, Val: -7},
		},
	}
	if err := EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, req)
	}

	resp := Response{
		V:        ProtocolVersion,
		OK:       true,
		Possibly: true,
		Verdict:  &Verdict{Possibly: true, Definitely: false, DefinitelyKnown: true},
	}
	if err := EncodeResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	gotResp, err := DecodeResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotResp, resp) {
		t.Fatalf("response round trip mismatch:\n got %+v\nwant %+v", gotResp, resp)
	}
}

func TestReadFrameHostileLengths(t *testing.T) {
	mk := func(n uint32, body []byte) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		return append(hdr[:], body...)
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"oversized length", mk(MaxFrame+1, nil), ErrFrameTooLarge},
		{"max uint32 length", mk(^uint32(0), nil), ErrFrameTooLarge},
		{"zero length", mk(0, nil), ErrEmptyFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
	t.Run("truncated header", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader(mk(10, []byte("abc")))); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("write oversized", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})
}

func TestDecodeRequestRejectsBadInput(t *testing.T) {
	t.Run("invalid json", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, []byte("{not json")); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRequest(&buf); err == nil {
			t.Fatal("want error for invalid JSON")
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		var buf bytes.Buffer
		if err := EncodeRequest(&buf, Request{V: 99, Type: "query"}); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRequest(&buf); err == nil {
			t.Fatal("want error for unknown protocol version")
		}
	})
}

// TestLegacyKindOpenNamesPred: an open frame from a client that still
// selects the predicate with the removed numeric kind decodes (the frame
// is well-formed), but the open fails with an error that names the
// missing pred field and the removed kind selector.
func TestLegacyKindOpenNamesPred(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte(`{"v":1,"type":"open","session":"s","spec":{"kind":1,"procs":2}}`)); err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(&buf)
	if err != nil {
		t.Fatalf("legacy open frame must still decode: %v", err)
	}
	_, err = NewSession(*req.Spec)
	if err == nil {
		t.Fatal("open without pred must fail")
	}
	for _, want := range []string{`"pred"`, `"kind"`, "removed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the request decoder: it must
// return an error or a request — never panic — and must refuse to
// allocate frames beyond MaxFrame no matter what the length prefix says.
func FuzzDecodeFrame(f *testing.F) {
	var seed bytes.Buffer
	EncodeRequest(&seed, Request{V: ProtocolVersion, Type: "open", Session: "s",
		Spec: &Spec{Pred: "all(x)", Procs: 2}})
	f.Add(seed.Bytes())
	seed.Reset()
	EncodeRequest(&seed, Request{V: ProtocolVersion, Type: "append", Session: "s",
		Events: []Event{{Proc: 0, VC: []int64{1, 0}, Truth: true}}})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data))
		if err == nil && (len(payload) == 0 || len(payload) > MaxFrame) {
			t.Fatalf("ReadFrame returned %d bytes without error", len(payload))
		}
		req, err := DecodeRequest(bytes.NewReader(data))
		if err == nil && req.V != ProtocolVersion {
			t.Fatalf("DecodeRequest accepted version %d", req.V)
		}
		DecodeResponse(bytes.NewReader(data))
	})
}
