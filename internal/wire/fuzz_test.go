package wire

import (
	"bytes"
	"testing"
)

// The request and response decoders take their input from the network: the
// server decodes whatever a peer sends, the client whatever the server
// answers. Both fuzz targets start from the seed corpus checked in under
// testdata/fuzz (one frame body per message type, including a begin-prefixed
// execute and both session statuses) and check two properties: decoding
// never panics, and a decoded message re-encodes to a canonical body that
// decodes and re-encodes to itself. `make fuzz-smoke` runs both.

func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req request
		if decodeRequest(body, &req) != nil {
			return
		}
		canon := encodeRequest(nil, &req)
		var again request
		if err := decodeRequest(canon, &again); err != nil {
			t.Fatalf("re-encoded request does not decode: %v\n%x", err, canon)
		}
		if round := encodeRequest(nil, &again); !bytes.Equal(round, canon) {
			t.Fatalf("request does not round-trip:\n%x\n%x", canon, round)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp response
		if decodeResponse(body, &resp, nil) != nil {
			return
		}
		canon := encodeResponse(nil, &resp)
		var again response
		if err := decodeResponse(canon, &again, nil); err != nil {
			t.Fatalf("re-encoded response does not decode: %v\n%x", err, canon)
		}
		if round := encodeResponse(nil, &again); !bytes.Equal(round, canon) {
			t.Fatalf("response does not round-trip:\n%x\n%x", canon, round)
		}
	})
}
