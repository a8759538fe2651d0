package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"feralcc/internal/storage"
)

// TestErrorCodesBinaryRoundTrip pushes every non-OK ErrorCode through the
// full binary path — encodeResponse, framing, decodeResponse, errorFor — and
// asserts the reconstructed error still satisfies errors.Is for its sentinel.
func TestErrorCodesBinaryRoundTrip(t *testing.T) {
	sentinels := map[ErrorCode]error{
		CodeUniqueViolation:     storage.ErrUniqueViolation,
		CodeForeignKeyViolation: storage.ErrForeignKeyViolation,
		CodeSerialization:       storage.ErrSerialization,
		CodeLockTimeout:         storage.ErrLockTimeout,
		CodeNoSuchTable:         storage.ErrNoSuchTable,
		CodeNoSuchColumn:        storage.ErrNoSuchColumn,
		CodeTxState:             storage.ErrTxDone,
		CodeGeneric:             nil, // no sentinel; message must survive
	}
	for code, sentinel := range sentinels {
		srcErr := errors.New("handler failure détail")
		if sentinel != nil {
			srcErr = fmt.Errorf("executing stmt: %w", sentinel)
		}
		if got := codeOf(srcErr); got != code {
			t.Errorf("codeOf(%v) = %d, want %d", srcErr, got, code)
			continue
		}
		var buf bytes.Buffer
		body := encodeResponse(nil, &response{Code: code, Error: srcErr.Error()})
		if err := writeFrame(&buf, body); err != nil {
			t.Fatal(err)
		}
		frame, err := (&frameReader{r: &buf}).next()
		if err != nil {
			t.Fatal(err)
		}
		resp := new(response)
		if err := decodeResponse(frame, resp, nil); err != nil {
			t.Fatal(err)
		}
		rebuilt := errorFor(resp.Code, resp.Error, time.Duration(resp.RetryAfterNanos))
		if sentinel != nil && !errors.Is(rebuilt, sentinel) {
			t.Errorf("code %d: errors.Is lost across the wire: %v", code, rebuilt)
		}
		if sentinel == nil && rebuilt.Error() != srcErr.Error() {
			t.Errorf("generic message mangled: %q", rebuilt.Error())
		}
	}
	// codeOf must stay total: unmapped errors fall back to generic.
	if codeOf(storage.ErrReadOnly) != CodeGeneric {
		t.Error("unmapped sentinel not classified as generic")
	}
	if errorFor(CodeOK, "", 0) != nil {
		t.Error("CodeOK should reconstruct to nil")
	}
}

// canonical builds a wireValue with only the field its kind uses populated,
// which is exactly what the codec guarantees to reproduce.
func canonical(kindSel uint8, i int64, f float64, s string, b bool, tnano int64) wireValue {
	w := wireValue{K: kindSel % 6} // KindNull .. KindTime
	switch storage.Kind(w.K) {
	case storage.KindInt:
		w.I = i
	case storage.KindFloat:
		w.F = f
	case storage.KindString:
		w.S = s
	case storage.KindBool:
		w.B = b
	case storage.KindTime:
		w.T = tnano
	}
	return w
}

// TestWireValueQuick property-tests the value codec: any canonical wireValue
// — including Null, negative ints, and arbitrary timestamps — must decode to
// itself, consuming exactly the bytes it wrote.
func TestWireValueQuick(t *testing.T) {
	prop := func(kindSel uint8, i int64, f float64, s string, b bool, tnano int64) bool {
		in := canonical(kindSel, i, f, s, b, tnano)
		buf := appendValue(nil, in)
		d := &decoder{buf: buf}
		out := d.value()
		if d.err != nil || d.off != len(buf) {
			return false
		}
		// Compare floats by bit pattern so NaN round-trips count as equal.
		return out.K == in.K && out.I == in.I && out.S == in.S &&
			out.B == in.B && out.T == in.T &&
			math.Float64bits(out.F) == math.Float64bits(in.F)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestWireValueSliceQuick covers the length-prefixed slice form used for
// argument lists and rows.
func TestWireValueSliceQuick(t *testing.T) {
	prop := func(seeds []uint8, i int64, s string) bool {
		in := make([]wireValue, len(seeds))
		for idx, k := range seeds {
			in[idx] = canonical(k, i+int64(idx), float64(idx)/3, s, idx%2 == 0, -i)
		}
		d := &decoder{buf: appendValues(nil, in)}
		out := d.values(nil)
		if d.err != nil || len(out) != len(in) {
			return false
		}
		for idx := range in {
			if out[idx] != in[idx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWireTimeZonesNormalize pins the timestamp contract: instants survive,
// wall-clock zone does not (everything decodes as UTC).
func TestWireTimeZonesNormalize(t *testing.T) {
	zone := time.FixedZone("UTC+5:30", 5*3600+1800)
	local := time.Unix(1736000000, 987654321).In(zone)
	got := fromWire(toWire(storage.Time(local)))
	if !got.T.Equal(local) {
		t.Fatalf("instant lost: %v != %v", got.T, local)
	}
	if got.T.Location() != time.UTC {
		t.Fatalf("decoded timestamp not UTC: %v", got.T.Location())
	}
}

// TestDecoderRejectsTruncation fuzzes truncation: every proper prefix of a
// valid request must decode to an error, never to a bogus request or a panic.
func TestDecoderRejectsTruncation(t *testing.T) {
	req := &request{Type: MsgExec, SQL: "SELECT x FROM t WHERE id = ?",
		DeadlineNanos: int64(250 * time.Millisecond),
		Args:          []wireValue{toWire(storage.Int(-12345)), toWire(storage.Str("ü")), toWire(storage.Null())}}
	full := encodeRequest(nil, req)
	for n := 0; n < len(full); n++ {
		if err := decodeRequest(full[:n], new(request)); err == nil {
			t.Fatalf("truncated body of %d/%d bytes decoded cleanly", n, len(full))
		}
	}
	if err := decodeRequest(full, new(request)); err != nil {
		t.Fatalf("full body failed: %v", err)
	}
}

// TestRequestCodecQuick property-tests the request codec across both
// deadline-carrying message types: any non-negative budget, handle, SQL text,
// and argument list must round-trip exactly.
func TestRequestCodecQuick(t *testing.T) {
	prop := func(execute bool, deadline int64, handle uint64, sql string, kinds []uint8, n int64) bool {
		if deadline < 0 {
			deadline = -deadline // budgets are non-negative by contract
		}
		req := &request{Type: MsgExec, SQL: sql, DeadlineNanos: deadline}
		if execute {
			req = &request{Type: MsgExecute, Handle: handle, DeadlineNanos: deadline}
		}
		for idx, k := range kinds {
			req.Args = append(req.Args, canonical(k, n+int64(idx), float64(idx), sql, idx%2 == 0, n))
		}
		got := new(request)
		if err := decodeRequest(encodeRequest(nil, req), got); err != nil {
			return false
		}
		if got.Type != req.Type || got.SQL != req.SQL || got.Handle != req.Handle ||
			got.DeadlineNanos != req.DeadlineNanos || len(got.Args) != len(req.Args) {
			return false
		}
		for idx := range req.Args {
			if got.Args[idx] != req.Args[idx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestRequestDeadlineZeroMeansUnbounded pins the wire meaning of an absent
// deadline: a zero budget must encode, survive, and decode as exactly zero
// (the server treats it as "no statement deadline").
func TestRequestDeadlineZeroMeansUnbounded(t *testing.T) {
	for _, typ := range []MsgType{MsgExec, MsgExecute} {
		req := &request{Type: typ, SQL: "SELECT 1", Handle: 7}
		got := new(request)
		if err := decodeRequest(encodeRequest(nil, req), got); err != nil {
			t.Fatal(err)
		}
		if got.DeadlineNanos != 0 {
			t.Fatalf("%v: zero deadline decoded as %d", typ, got.DeadlineNanos)
		}
	}
}

// TestResponseRejectsTruncation is the response-side truncation corpus: every
// proper prefix of both an OK response (with columns and rows) and an error
// response must decode to an error, never a short-but-plausible response.
func TestResponseRejectsTruncation(t *testing.T) {
	responses := []*response{
		{Code: CodeOK, Handle: 3, NumParams: 2,
			Columns: []string{"id", "key"},
			Rows: [][]wireValue{
				{toWire(storage.Int(1)), toWire(storage.Str("a"))},
				{toWire(storage.Int(2)), toWire(storage.Null())},
			},
			RowsAffected: -1, LastInsertID: 1 << 40},
		{Code: CodeTimeout, Error: "statement deadline exceeded détail"},
	}
	for _, resp := range responses {
		full := encodeResponse(nil, resp)
		for n := 0; n < len(full); n++ {
			if err := decodeResponse(full[:n], new(response), nil); err == nil {
				t.Fatalf("code %d: truncated body of %d/%d bytes decoded cleanly",
					resp.Code, n, len(full))
			}
		}
		if err := decodeResponse(full, new(response), nil); err != nil {
			t.Fatalf("code %d: full body failed: %v", resp.Code, err)
		}
	}
}
