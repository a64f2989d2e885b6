package proto

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeRequest checks both directions of the request codec. Arbitrary
// bytes decode without panicking, and a payload DecodeRequest accepts is
// exactly the payload AppendRequest writes for the decoded request. A
// request built from the input (op data[0]%9, which includes the invalid
// ops 0 and 8, then key, value, limit and tenant bytes) survives
// AppendRequest → Frame → DecodeRequest with the operands its op carries,
// and an invalid op is rejected. The seed corpus is testdata/fuzz.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := DecodeRequest(data, &req); err == nil {
			payload, size, ok, ferr := Frame(AppendRequest(nil, req))
			if !ok || ferr != nil || size != HeaderLen+len(data) || !bytes.Equal(payload, data) {
				t.Fatalf("accepted payload % x re-encodes as % x (ok %v, err %v)", data, payload, ok, ferr)
			}
		}
		if len(data) == 0 {
			return
		}
		var word [21]byte
		copy(word[:], data[1:])
		in := Request{
			Op:    data[0] % 9,
			Key:   binary.LittleEndian.Uint64(word[0:]),
			Val:   binary.LittleEndian.Uint64(word[8:]),
			Limit: binary.LittleEndian.Uint32(word[16:]),
		}
		if in.Op == OpHello && len(data) > 21 {
			in.Tenant = data[21:min(len(data), 21+MaxTenant)]
		}
		enc := AppendRequest(nil, in)
		payload, size, ok, err := Frame(enc)
		if !ok || err != nil || size != len(enc) {
			t.Fatalf("frame of %+v: ok %v err %v size %d of %d", in, ok, err, size, len(enc))
		}
		var out Request
		err = DecodeRequest(payload, &out)
		if in.Op == 0 || in.Op > OpHello {
			if err == nil {
				t.Fatalf("op %d decoded without error", in.Op)
			}
			return
		}
		if err != nil {
			t.Fatalf("round trip of %+v: %v", in, err)
		}
		same := out.Op == in.Op
		switch in.Op {
		case OpGet, OpDelete:
			same = same && out.Key == in.Key
		case OpPut:
			same = same && out.Key == in.Key && out.Val == in.Val
		case OpScan:
			same = same && out.Key == in.Key && out.Limit == in.Limit
		case OpHello:
			same = same && bytes.Equal(out.Tenant, in.Tenant)
		}
		if !same {
			t.Fatalf("round trip of %+v decoded %+v", in, out)
		}
	})
}

// FuzzFrame cuts an arbitrary byte stream into frames the way a connection
// reader does. A length prefix of 0 or above MaxFrame is an error and
// nothing else is; a complete frame is always reported; and a payload
// starts right after its header and never extends past the buffer. The
// seed corpus is testdata/fuzz.
func FuzzFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for {
			payload, size, ok, err := Frame(rest)
			if len(rest) < HeaderLen {
				if ok || err != nil {
					t.Fatalf("%d-byte tail: ok %v err %v, want not ready", len(rest), ok, err)
				}
				return
			}
			n := int(binary.LittleEndian.Uint32(rest))
			if bad := n == 0 || n > MaxFrame; bad != (err != nil) {
				t.Fatalf("length prefix %d: err %v", n, err)
			}
			if err != nil {
				if ok || payload != nil {
					t.Fatalf("length prefix %d: error with a payload", n)
				}
				return
			}
			if complete := HeaderLen+n <= len(rest); ok != complete {
				t.Fatalf("length prefix %d over %d bytes: ok %v", n, len(rest), ok)
			}
			if !ok {
				return
			}
			if len(payload) != n || size != HeaderLen+n || size > len(rest) || &payload[0] != &rest[HeaderLen] {
				t.Fatalf("length prefix %d over %d bytes: payload of %d, size %d", n, len(rest), len(payload), size)
			}
			rest = rest[size:]
		}
	})
}
