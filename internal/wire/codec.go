package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"feralcc/internal/storage"
)

// wireValue is the transport form of a storage.Value: a kind tag plus the
// one field the kind uses. Kept as a struct (rather than encoding
// storage.Value directly) so the codec round-trip is property-testable in
// isolation from the storage package's invariants.
type wireValue struct {
	K uint8
	I int64
	F float64
	S string
	B bool
	T int64 // UnixNano for timestamps
}

func toWire(v storage.Value) wireValue {
	w := wireValue{K: uint8(v.Kind)}
	switch v.Kind {
	case storage.KindInt:
		w.I = v.I
	case storage.KindFloat:
		w.F = v.F
	case storage.KindString:
		w.S = v.S
	case storage.KindBool:
		w.B = v.B
	case storage.KindTime:
		w.T = v.T.UnixNano()
	}
	return w
}

func fromWire(w wireValue) storage.Value {
	switch storage.Kind(w.K) {
	case storage.KindInt:
		return storage.Int(w.I)
	case storage.KindFloat:
		return storage.Float(w.F)
	case storage.KindString:
		return storage.Str(w.S)
	case storage.KindBool:
		return storage.Bool(w.B)
	case storage.KindTime:
		return storage.Time(time.Unix(0, w.T).UTC())
	default:
		return storage.Null()
	}
}

// --- primitive encoders -------------------------------------------------------

// errTruncated reports a frame body shorter than its own encoding claims.
var errTruncated = fmt.Errorf("wire: truncated frame body")

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder walks a frame body with bounds checking. The first decode error
// sticks; subsequent reads return zero values so call sites can decode a
// whole message and check once.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.buf)-d.off) < n {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) float() float64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	bits := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(bits)
}

// --- value codec --------------------------------------------------------------

func appendValue(b []byte, w wireValue) []byte {
	b = append(b, w.K)
	switch storage.Kind(w.K) {
	case storage.KindInt:
		b = appendVarint(b, w.I)
	case storage.KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(w.F))
	case storage.KindString:
		b = appendString(b, w.S)
	case storage.KindBool:
		if w.B {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case storage.KindTime:
		b = appendVarint(b, w.T)
	}
	return b
}

func (d *decoder) value() wireValue {
	w := wireValue{K: d.byte()}
	switch storage.Kind(w.K) {
	case storage.KindInt:
		w.I = d.varint()
	case storage.KindFloat:
		w.F = d.float()
	case storage.KindString:
		w.S = d.string()
	case storage.KindBool:
		w.B = d.byte() != 0
	case storage.KindTime:
		w.T = d.varint()
	}
	return w
}

func appendValues(b []byte, vals []wireValue) []byte {
	b = appendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = appendValue(b, v)
	}
	return b
}

// values decodes a value list, reusing buf's backing array when it is large
// enough.
func (d *decoder) values(buf []wireValue) []wireValue {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	// Cap the eager allocation: a lying count cannot ask for more entries
	// than one byte each of remaining body.
	if n > uint64(len(d.buf)-d.off) {
		d.fail()
		return nil
	}
	vals := slices.Grow(buf[:0], int(n))[:n]
	for i := range vals {
		vals[i] = d.value()
	}
	return vals
}

// rows decodes n value lists into buf's reused storage.
func (d *decoder) rows(n int, buf *rowBuf) [][]wireValue {
	if buf == nil {
		buf = new(rowBuf)
	}
	if cap(buf.cells) > maxKeptCells {
		*buf = rowBuf{}
	}
	rows, cells := buf.rows[:0], buf.cells[:0]
	for i := 0; i < n && d.err == nil; i++ {
		m := d.uvarint()
		// Each value takes at least one byte of the remaining body.
		if m > uint64(len(d.buf)-d.off) {
			d.fail()
			break
		}
		start := len(cells)
		for j := uint64(0); j < m; j++ {
			cells = append(cells, d.value())
		}
		var row []wireValue
		if m > 0 {
			row = cells[start:len(cells):len(cells)]
		}
		rows = append(rows, row)
	}
	buf.rows, buf.cells = rows, cells
	return rows
}

// --- message codec ------------------------------------------------------------

func encodeRequest(b []byte, req *request) []byte {
	b = append(b, byte(req.Type))
	switch req.Type {
	case MsgExec:
		b = appendUvarint(b, uint64(req.DeadlineNanos))
		b = appendUvarint(b, req.BeginHandle)
		b = appendString(b, req.SQL)
		b = appendValues(b, req.Args)
		b = appendUvarint(b, req.TraceID)
	case MsgPrepare:
		b = appendString(b, req.SQL)
	case MsgExecute:
		b = appendUvarint(b, uint64(req.DeadlineNanos))
		b = appendUvarint(b, req.BeginHandle)
		b = appendUvarint(b, req.Handle)
		b = appendValues(b, req.Args)
		b = appendUvarint(b, req.TraceID)
	case MsgCloseStmt:
		b = appendUvarint(b, req.Handle)
	}
	return b
}

// decodeRequest decodes body into req, overwriting every field. req.Args
// reuses its backing array when it is large enough, so a server decoding
// into one request per connection allocates nothing for the argument list.
func decodeRequest(body []byte, req *request) error {
	d := &decoder{buf: body}
	args := req.Args[:0]
	*req = request{Type: MsgType(d.byte())}
	switch req.Type {
	case MsgExec:
		req.DeadlineNanos = int64(d.uvarint())
		req.BeginHandle = d.uvarint()
		req.SQL = d.string()
		req.Args = d.values(args)
		req.TraceID = d.uvarint()
	case MsgPrepare:
		req.SQL = d.string()
	case MsgExecute:
		req.DeadlineNanos = int64(d.uvarint())
		req.BeginHandle = d.uvarint()
		req.Handle = d.uvarint()
		req.Args = d.values(args)
		req.TraceID = d.uvarint()
	case MsgCloseStmt:
		req.Handle = d.uvarint()
	default:
		if d.err != nil {
			return d.err
		}
		return fmt.Errorf("wire: unknown message type %d", req.Type)
	}
	return d.err
}

// Response flag bits (the byte after the trace ID of a CodeOK response).
const (
	flagCacheHit = 1 << iota // the statement's plan came from the plan cache
	flagBegins               // the prepared statement opens a transaction
	flagsKnown   = flagCacheHit | flagBegins
)

func encodeResponse(b []byte, resp *response) []byte {
	b = append(b, byte(resp.Code), byte(resp.Status))
	if resp.Code != CodeOK {
		b = appendString(b, resp.Error)
		return appendUvarint(b, uint64(resp.RetryAfterNanos))
	}
	b = appendUvarint(b, resp.Handle)
	b = appendUvarint(b, uint64(resp.NumParams))
	b = appendUvarint(b, uint64(len(resp.Columns)))
	for _, c := range resp.Columns {
		b = appendString(b, c)
	}
	b = appendUvarint(b, uint64(len(resp.Rows)))
	for _, row := range resp.Rows {
		b = appendValues(b, row)
	}
	b = appendVarint(b, resp.RowsAffected)
	b = appendVarint(b, resp.LastInsertID)
	b = appendUvarint(b, resp.TraceID)
	var flags byte
	if resp.CacheHit {
		flags |= flagCacheHit
	}
	if resp.Begins {
		flags |= flagBegins
	}
	b = append(b, flags)
	// Spans as (id, nanos) pairs, zeroes omitted: most statements touch only
	// two or three of the span slots.
	nz := 0
	for _, v := range resp.Spans {
		if v != 0 {
			nz++
		}
	}
	b = appendUvarint(b, uint64(nz))
	for i, v := range resp.Spans {
		if v != 0 {
			b = append(b, byte(i))
			b = appendVarint(b, v)
		}
	}
	return b
}

// decodeResponse decodes body into resp, overwriting every field. Rows are
// decoded into buf (nil: freshly allocated), valid until its next use.
func decodeResponse(body []byte, resp *response, buf *rowBuf) error {
	d := &decoder{buf: body}
	*resp = response{Code: ErrorCode(d.byte()), Status: SessionStatus(d.byte())}
	if d.err == nil && resp.Status > StatusInTx {
		return fmt.Errorf("wire: unknown session status %d", resp.Status)
	}
	if d.err == nil && resp.Code != CodeOK {
		resp.Error = d.string()
		resp.RetryAfterNanos = int64(d.uvarint())
		return d.err
	}
	resp.Handle = d.uvarint()
	resp.NumParams = int(d.uvarint())
	if ncols := d.uvarint(); ncols > 0 {
		if ncols > uint64(len(d.buf)-d.off) {
			d.fail()
		} else {
			resp.Columns = make([]string, ncols)
			for i := range resp.Columns {
				resp.Columns[i] = d.string()
			}
		}
	}
	if nrows := d.uvarint(); d.err == nil && nrows > 0 {
		if nrows > uint64(len(d.buf)-d.off) {
			d.fail()
		} else {
			resp.Rows = d.rows(int(nrows), buf)
		}
	}
	resp.RowsAffected = d.varint()
	resp.LastInsertID = d.varint()
	resp.TraceID = d.uvarint()
	flags := d.byte()
	if d.err == nil && flags&^flagsKnown != 0 {
		return fmt.Errorf("wire: unknown response flags %#x", flags)
	}
	resp.CacheHit = flags&flagCacheHit != 0
	resp.Begins = flags&flagBegins != 0
	if nspans := d.uvarint(); d.err == nil && nspans > 0 {
		if nspans > uint64(len(d.buf)-d.off) {
			d.fail()
		} else {
			for i := uint64(0); i < nspans; i++ {
				id := d.byte()
				v := d.varint()
				if d.err == nil && int(id) < len(resp.Spans) {
					resp.Spans[id] = v
				}
			}
		}
	}
	return d.err
}

// --- framing ------------------------------------------------------------------

// frameHeader is the length prefix of every frame.
const frameHeader = 4

// startFrame resets b to an empty frame: room for the length prefix, which
// endFrame fills in once the body has been appended.
func startFrame(b []byte) []byte { return append(b[:0], 0, 0, 0, 0) }

// endFrame stamps the body length into a frame built on startFrame. The size
// is validated before any byte can reach a writer: an oversized body returns
// an error, leaving the stream in sync for subsequent frames.
func endFrame(frame []byte) error {
	n := len(frame) - frameHeader
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return nil
}

// writeFrame writes one length-prefixed frame with an unframed body.
func writeFrame(w io.Writer, body []byte) error {
	frame := append(startFrame(nil), body...)
	if err := endFrame(frame); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// maxKeptFrame bounds the read buffer a connection keeps between frames: one
// large result does not pin its size for the connection's lifetime.
const maxKeptFrame = 64 << 10

// frameReader reads length-prefixed frames into one reused buffer. The body
// it returns is valid until the next call; the decoders copy every string
// out of it.
type frameReader struct {
	r   io.Reader
	buf []byte
}

// next reads one frame body. The buffer grows only as body bytes arrive, at
// most doubling per step, so a header that promises MaxFrame bytes and then
// stalls or closes costs what was actually sent, not what was promised.
func (fr *frameReader) next() ([]byte, error) {
	if cap(fr.buf) > maxKeptFrame {
		fr.buf = nil
	}
	buf := fr.buf[:0]
	if cap(buf) < 512 {
		buf = make([]byte, 0, 512)
	}
	if _, err := io.ReadFull(fr.r, buf[:frameHeader]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(buf[:frameHeader]))
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), cap(buf)))
		}
		m, err := fr.r.Read(buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil && len(buf) < n {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	fr.buf = buf
	return buf[:n], nil
}
