package proto

import (
	"bytes"
	"testing"
)

// TestRequestRoundTrip encodes every request shape and decodes it back.
func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: 42},
		{Op: OpPut, Key: 7, Val: 9},
		{Op: OpDelete, Key: 1<<63 + 5},
		{Op: OpScan, Key: 100, Limit: 50},
		{Op: OpPing},
		{Op: OpStats},
		{Op: OpHello, Tenant: []byte("tenant-a")},
	}
	var buf []byte
	for _, r := range reqs {
		buf = AppendRequest(buf, r)
	}
	for i, want := range reqs {
		payload, size, ok, err := Frame(buf)
		if err != nil || !ok {
			t.Fatalf("req %d: Frame = ok=%v err=%v", i, ok, err)
		}
		var got Request
		if err := DecodeRequest(payload, &got); err != nil {
			t.Fatalf("req %d: decode: %v", i, err)
		}
		if got.Op != want.Op || got.Key != want.Key || got.Val != want.Val ||
			got.Limit != want.Limit || !bytes.Equal(got.Tenant, want.Tenant) {
			t.Fatalf("req %d: got %+v want %+v", i, got, want)
		}
		buf = buf[size:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes after all frames", len(buf))
	}
}

// TestResponseRoundTrip covers every response shape.
func TestResponseRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendOK(buf)
	buf = AppendValue(buf, 12345)
	buf = AppendStatus(buf, StatusNotFound)
	buf = AppendStatus(buf, StatusBusy)
	buf = AppendStatus(buf, StatusUnsupported)
	buf = AppendError(buf, "worker crashed")
	buf = AppendText(buf, []byte("ops=5"))

	type want struct {
		status uint8
		val    uint64
		hasVal bool
		msg    string
	}
	wants := []want{
		{status: StatusOK},
		{status: StatusOK, val: 12345, hasVal: true},
		{status: StatusNotFound},
		{status: StatusBusy},
		{status: StatusUnsupported},
		{status: StatusErr, msg: "worker crashed"},
		{status: StatusOK, msg: "ops=5"},
	}
	for i, w := range wants {
		payload, size, ok, err := Frame(buf)
		if err != nil || !ok {
			t.Fatalf("resp %d: Frame ok=%v err=%v", i, ok, err)
		}
		var r Response
		if err := DecodeResponse(payload, &r); err != nil {
			t.Fatalf("resp %d: decode: %v", i, err)
		}
		if r.Status != w.status || r.Val != w.val || r.HasVal != w.hasVal || string(r.Msg) != w.msg {
			t.Fatalf("resp %d: got %+v want %+v", i, r, w)
		}
		buf = buf[size:]
	}
}

// TestFramePartialAndOversized pins the framing edge cases: partial frames
// report not-ready without error; an oversized or zero length prefix is a
// connection-fatal ErrFrame.
func TestFramePartialAndOversized(t *testing.T) {
	full := AppendRequest(nil, Request{Op: OpPut, Key: 1, Val: 2})
	for cut := 0; cut < len(full); cut++ {
		if _, _, ok, err := Frame(full[:cut]); ok || err != nil {
			t.Fatalf("cut %d: ok=%v err=%v, want not-ready", cut, ok, err)
		}
	}
	if _, _, ok, err := Frame(full); !ok || err != nil {
		t.Fatalf("full frame: ok=%v err=%v", ok, err)
	}

	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, _, err := Frame(huge); err == nil {
		t.Fatal("oversized length prefix not rejected")
	}
	zero := []byte{0, 0, 0, 0}
	if _, _, _, err := Frame(zero); err == nil {
		t.Fatal("zero length prefix not rejected")
	}
}

// TestDecodeRequestMalformed pins operand-length validation per op.
func TestDecodeRequestMalformed(t *testing.T) {
	cases := [][]byte{
		{},                              // empty payload
		{OpGet},                         // GET missing key
		{OpGet, 1, 2, 3},                // GET short key
		{OpPut, 1, 2, 3, 4, 5, 6, 7, 8}, // PUT missing value
		{OpPing, 9},                     // PING with operands
		{OpHello, 5},                    // HELLO truncated length
		{OpHello, 5, 0, 'a'},            // HELLO length > bytes
		{99, 0, 0, 0, 0, 0, 0, 0, 0},    // unknown op
	}
	var r Request
	for i, payload := range cases {
		if err := DecodeRequest(payload, &r); err == nil {
			t.Errorf("case %d (% x): malformed payload accepted", i, payload)
		}
	}
}

// TestAppendAllocFree pins the hot-path encode functions as allocation-free
// once the destination has capacity.
func TestAppendAllocFree(t *testing.T) {
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		buf = AppendRequest(buf, Request{Op: OpPut, Key: 1, Val: 2})
		buf = AppendRequest(buf, Request{Op: OpGet, Key: 3})
		buf = AppendOK(buf)
		buf = AppendValue(buf, 9)
		buf = AppendStatus(buf, StatusBusy)
	})
	if allocs != 0 {
		t.Fatalf("encode hot path allocates %.1f per run", allocs)
	}
	var req Request
	var resp Response
	reqBuf := AppendRequest(nil, Request{Op: OpPut, Key: 1, Val: 2})
	respBuf := AppendValue(nil, 7)
	allocs = testing.AllocsPerRun(100, func() {
		p, _, _, _ := Frame(reqBuf)
		_ = DecodeRequest(p, &req)
		p, _, _, _ = Frame(respBuf)
		_ = DecodeResponse(p, &resp)
	})
	if allocs != 0 {
		t.Fatalf("decode hot path allocates %.1f per run", allocs)
	}
}
