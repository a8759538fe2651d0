package histcheck

import (
	"bytes"
	"testing"
)

// FuzzReadJSONL feeds arbitrary bytes to the history decoder, which
// feralcheck and /anomalies replays hand untrusted input. Decoding must not
// panic; a decoded history must survive a WriteJSONL round trip unchanged;
// and Check and AlmostCycles must not panic on it. The seed corpus under
// testdata/fuzz/FuzzReadJSONL holds the witnesses of testdata/hunt.
//
//	go test -run='^$' -fuzz=FuzzReadJSONL -fuzztime=10s ./internal/histcheck
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("# header only\n\n"))
	f.Add([]byte(`{"seq":1,"tx":1,"kind":"read","table":"t","row":1,"observed":1,"own":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, events); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-reading written history: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip: %d events, want %d", len(again), len(events))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("round trip event %d: %+v, want %+v", i, again[i], events[i])
			}
		}
		Check(events)
		AlmostCycles(events)
	})
}
