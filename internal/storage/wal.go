package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"feralcc/internal/obs"
)

// The write-ahead log is a single append-only file of checksummed,
// length-prefixed records living in Options.DataDir. Every record is
//
//	length:uint32BE  crc:uint32BE(Castagnoli, over payload)  payload
//
// and the payload's first byte is a record type. Commit records are appended
// by the group-commit leader after validation and before install, so a
// record reaches the log if and only if the commit will be acknowledged; DDL
// records are appended under catalogMu before the catalog mutation becomes
// visible. Recovery scans the log until the first torn or
// checksum-corrupt record, replays the valid prefix, and truncates the rest —
// so the recovered state is always exactly a committed prefix, never a
// half-applied transaction.
const (
	walFileName  = "wal.log"
	snapFileName = "snapshot.db"

	// walMaxRecord bounds a single record; a length field beyond it is treated
	// as a corrupt tail rather than an allocation request.
	walMaxRecord = 64 << 20

	walHeaderSize = 8
)

// WAL record types (first payload byte).
const (
	recCommit        byte = 1
	recCreateTable   byte = 2
	recDropTable     byte = 3
	recAddIndex      byte = 4
	recAddForeignKey byte = 5
	// recGroupCommit frames a whole group-commit batch: a uvarint transaction
	// count followed by length-prefixed complete recCommit payloads (type byte
	// included), in queue order. One frame, one checksum, one fsync for the
	// batch; recovery replays all the sub-records or none, so a torn or
	// undecodable frame discards the batch atomically — acknowledged commits
	// are exactly the durable frames.
	recGroupCommit byte = 6
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when the WAL is fsynced to stable storage.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs after every appended record (commit and DDL) before
	// the operation is acknowledged — PostgreSQL's synchronous_commit=on.
	// The safe default.
	SyncAlways SyncPolicy = iota
	// SyncInterval writes records immediately but fsyncs from a background
	// ticker every Options.SyncInterval; a crash may lose the last interval's
	// acknowledged commits (never corrupt the log).
	SyncInterval
	// SyncOff never fsyncs; the OS flushes at its leisure. Process death
	// (as opposed to machine death) still loses nothing, because records are
	// written to the kernel before the commit is acknowledged.
	SyncOff
)

// String returns the flag-style name of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy maps a flag value to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("storage: unknown sync policy %q (want always, interval, or off)", s)
	}
}

// errWALClosed fails appends, and so commits and DDL, after Database.Close.
var errWALClosed = errors.New("storage: wal closed")

// wal owns the append side of the log. Appends take wal.mu (innermost lock:
// the group-commit leader and DDL under catalogMu call in, never the
// reverse), write the frame with WriteAt at a self-tracked offset, and fsync
// per policy. A failed fsync or short write rolls the file back to the
// pre-append offset so an aborted commit can never be replayed; if even the
// rollback fails the log is poisoned and every later append fails rather than
// diverging from memory.
type wal struct {
	mu     sync.Mutex
	f      *os.File
	size   int64
	policy SyncPolicy
	hook   func(op string) error // Options.FaultHook, consulted at wal.* points
	dirty  bool                  // bytes written since the last fsync
	broken error                 // sticky poison after an unrecoverable failure
	closed bool                  // close has begun; a second close is a no-op
	buf    []byte                // frame assembly buffer, reused across appends

	stop chan struct{} // closes the interval syncer
	done chan struct{}
}

// walRecord is one record bound for the log: a commit or DDL payload, the
// trace of the statement that produced it, and, for a queued commit record,
// its group-commit state.
type walRecord struct {
	payload  []byte
	tr       *obs.StmtTrace
	enqueued time.Time // when it joined the group-commit queue
	err      error     // the outcome of the frame that carried it
	done     bool      // err is final; guarded by commitPipeline.groupMu
	wake     sync.Cond // signals the waiting committer; L is groupMu
}

// openWAL opens (creating if absent) the log file and positions the writer at
// size, which recovery has already truncated to the last valid record.
func openWAL(path string, size int64, policy SyncPolicy, interval time.Duration, hook func(string) error) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{f: f, size: size, policy: policy, hook: hook}
	if policy == SyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop(interval)
	}
	return w, nil
}

// fault consults the fault hook at a wal.* point.
func (w *wal) fault(point string) error {
	if w.hook == nil {
		return nil
	}
	return w.hook(point)
}

// append writes batch as one frame and makes it durable per the sync policy.
// A batch of one is framed as its own record (a commit or DDL frame, byte for
// byte); a larger batch, which only a group-commit leader builds from commit
// records, becomes one recGroupCommit frame. Callers have already consulted
// the wal.append fault point for each record.
//
// Under SyncAlways the wal.fsync fault point fires once per record before
// the single real fsync, so fault points stay per transaction while the file
// is synced once per batch. Any write or fsync failure rolls the file back to
// the pre-frame offset and is returned for the whole batch: none of it was
// acknowledged, none will be replayed. Each record's trace receives the
// wal_append and wal_fsync spans.
func (w *wal) append(batch []*walRecord) error {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	frame := w.frame(batch)
	off := w.size
	if _, err := w.f.WriteAt(frame, off); err != nil {
		w.rollbackTo(off)
		return fmt.Errorf("storage: wal append: %w", err)
	}
	w.size = off + int64(len(frame))
	w.dirty = true
	if w.policy == SyncAlways {
		for range batch {
			if err := w.fault("wal.fsync"); err != nil {
				w.rollbackTo(off)
				return err
			}
		}
		fstart := time.Now()
		if err := w.syncFileLocked(); err != nil {
			w.rollbackTo(off)
			return err
		}
		fd := time.Since(fstart)
		for _, r := range batch {
			r.tr.Add(obs.SpanWALFsync, fd)
		}
	}
	d := time.Since(start)
	mWALAppends.Add(uint64(len(batch)))
	mWALAppendSeconds.Observe(d)
	for _, r := range batch {
		r.tr.Add(obs.SpanWALAppend, d)
	}
	return nil
}

// walBufKeep bounds the frame buffer kept between appends: ordinary commit
// and group frames fit, while a bulk load's frame is not pinned for the life
// of the log.
const walBufKeep = 4 << 10

// frame assembles batch's frame (header, then the record or group payload)
// in the reusable buffer. Caller holds w.mu.
func (w *wal) frame(batch []*walRecord) []byte {
	b := append(w.buf[:0], make([]byte, walHeaderSize)...)
	if len(batch) == 1 {
		b = append(b, batch[0].payload...)
	} else {
		b = append(b, recGroupCommit)
		b = binary.AppendUvarint(b, uint64(len(batch)))
		for _, r := range batch {
			b = binary.AppendUvarint(b, uint64(len(r.payload)))
			b = append(b, r.payload...)
		}
	}
	payload := b[walHeaderSize:]
	binary.BigEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[4:8], crc32.Checksum(payload, crcTable))
	if cap(b) <= walBufKeep {
		w.buf = b
	} else {
		w.buf = nil
	}
	return b
}

// fsyncLocked flushes written records to stable storage, consulting the
// wal.fsync fault point first. Caller holds w.mu.
func (w *wal) fsyncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.fault("wal.fsync"); err != nil {
		return err
	}
	return w.syncFileLocked()
}

// syncFileLocked is the hook-free fsync. Caller holds w.mu.
func (w *wal) syncFileLocked() error {
	if !w.dirty {
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: wal fsync: %w", err)
	}
	mWALFsyncs.Inc()
	mWALFsyncSeconds.Observe(time.Since(start))
	w.dirty = false
	return nil
}

// rollbackTo truncates the file back to off after a failed append or fsync.
// Failure to roll back poisons the log: memory and disk would disagree about
// the aborted record, so no further append may succeed.
func (w *wal) rollbackTo(off int64) {
	if err := w.f.Truncate(off); err != nil {
		w.broken = fmt.Errorf("storage: wal unrecoverable (rollback failed): %w", err)
		return
	}
	w.size = off
}

// truncateAll resets the log after a checkpoint made its contents redundant.
// Caller must have quiesced commits and DDL (Checkpoint holds the pipeline
// gate exclusively, plus catalogMu).
func (w *wal) truncateAll() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: wal truncate: %w", err)
	}
	w.size = 0
	w.dirty = false
	return w.f.Sync()
}

// syncLoop is the SyncInterval background fsync. Errors are retried on the
// next tick (dirty stays set).
func (w *wal) syncLoop(interval time.Duration) {
	defer close(w.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.mu.Lock()
			_ = w.fsyncLocked()
			w.mu.Unlock()
		case <-w.stop:
			return
		}
	}
}

// close stops the interval syncer, then flushes and closes the log file.
// Later appends fail with errWALClosed, and a second close returns nil.
func (w *wal) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.fsyncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.broken = errWALClosed
	return err
}

// --- record payload encoding --------------------------------------------------

// appendLPString appends a uvarint-length-prefixed string.
func appendLPString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendWALValue appends one typed value: a kind byte followed by the
// kind-specific payload (matching Value.Key's equality semantics when
// decoded: times round-trip through UnixNano, floats through their bits).
func appendWALValue(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KindNull:
	case KindInt:
		b = binary.AppendVarint(b, v.I)
	case KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.F))
	case KindString:
		b = appendLPString(b, v.S)
	case KindBool:
		if v.B {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case KindTime:
		b = binary.AppendVarint(b, v.T.UnixNano())
	}
	return b
}

// appendWALRow appends a value-count-prefixed row image.
func appendWALRow(b []byte, vals []Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = appendWALValue(b, v)
	}
	return b
}

// Schema column flag bits.
const (
	schemaColNotNull    = 1 << 0
	schemaColPrimaryKey = 1 << 1
	schemaColHasDefault = 1 << 2
)

// appendSchema serializes a schema (shared by CreateTable records and
// snapshots).
func appendSchema(b []byte, s *Schema) []byte {
	b = appendLPString(b, s.Name)
	b = binary.AppendUvarint(b, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		b = appendLPString(b, c.Name)
		b = append(b, byte(c.Kind))
		var flags byte
		if c.NotNull {
			flags |= schemaColNotNull
		}
		if c.PrimaryKey {
			flags |= schemaColPrimaryKey
		}
		if !c.Default.IsNull() {
			flags |= schemaColHasDefault
		}
		b = append(b, flags)
		if !c.Default.IsNull() {
			b = appendWALValue(b, c.Default)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Indexes)))
	for _, ix := range s.Indexes {
		b = appendLPString(b, ix.Column)
		b = appendLPString(b, ix.Name)
		if ix.Unique {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.ForeignKeys)))
	for _, fk := range s.ForeignKeys {
		b = appendLPString(b, fk.Column)
		b = appendLPString(b, fk.ParentTable)
		b = append(b, byte(fk.OnDelete))
		b = appendLPString(b, fk.Name)
	}
	return b
}

// encodeCreateTable builds a recCreateTable payload.
func encodeCreateTable(s *Schema) []byte {
	return appendSchema([]byte{recCreateTable}, s)
}

// encodeDropTable builds a recDropTable payload.
func encodeDropTable(name string) []byte {
	return appendLPString([]byte{recDropTable}, name)
}

// encodeAddIndex builds a recAddIndex payload.
func encodeAddIndex(table, column string, unique bool) []byte {
	b := appendLPString([]byte{recAddIndex}, table)
	b = appendLPString(b, column)
	if unique {
		return append(b, 1)
	}
	return append(b, 0)
}

// encodeAddForeignKey builds a recAddForeignKey payload.
func encodeAddForeignKey(table, column, parent string, onDelete ReferentialAction) []byte {
	b := appendLPString([]byte{recAddForeignKey}, table)
	b = appendLPString(b, column)
	b = appendLPString(b, parent)
	return append(b, byte(onDelete))
}

// walOp codes within a commit record.
const (
	walOpInsert byte = 1
	walOpUpdate byte = 2
	walOpDelete byte = 3
)

// encodeCommit builds a recCommit payload from a transaction's write buffer.
// Tables are emitted in sorted-name order and ops in execution (seq) order so
// the bytes are deterministic for a given logical commit.
func encodeCommit(writes map[string]map[RowID]*txWrite, commitTS uint64) []byte {
	b := []byte{recCommit}
	b = binary.AppendUvarint(b, commitTS)
	names := make([]string, 0, len(writes))
	for name, rows := range writes {
		if len(rows) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		rows := writes[name]
		b = appendLPString(b, name)
		type opEntry struct {
			id RowID
			w  *txWrite
		}
		ops := make([]opEntry, 0, len(rows))
		for id, w := range rows {
			ops = append(ops, opEntry{id, w})
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].w.seq < ops[j].w.seq })
		b = binary.AppendUvarint(b, uint64(len(ops)))
		for _, e := range ops {
			switch e.w.op {
			case opInsert:
				b = append(b, walOpInsert)
				b = binary.AppendUvarint(b, uint64(e.id))
				b = appendWALRow(b, e.w.vals)
			case opUpdate:
				b = append(b, walOpUpdate)
				b = binary.AppendUvarint(b, uint64(e.id))
				b = appendWALRow(b, e.w.vals)
			case opDelete:
				b = append(b, walOpDelete)
				b = binary.AppendUvarint(b, uint64(e.id))
			}
		}
	}
	return b
}

// --- record payload decoding --------------------------------------------------

// walDecoder is a cursor over one record payload. The first decode error
// sticks; callers check err once at the end.
type walDecoder struct {
	b   []byte
	err error
}

func (d *walDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("storage: wal record: truncated %s", what)
	}
}

func (d *walDecoder) byteVal() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *walDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *walDecoder) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *walDecoder) str() string {
	n := d.u64()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail("string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *walDecoder) value() Value {
	switch Kind(d.byteVal()) {
	case KindNull:
		return Null()
	case KindInt:
		return Int(d.i64())
	case KindFloat:
		if d.err != nil || len(d.b) < 8 {
			d.fail("float")
			return Value{}
		}
		bits := binary.BigEndian.Uint64(d.b)
		d.b = d.b[8:]
		return Float(math.Float64frombits(bits))
	case KindString:
		return Str(d.str())
	case KindBool:
		return Bool(d.byteVal() != 0)
	case KindTime:
		return Time(time.Unix(0, d.i64()).UTC())
	default:
		d.fail("value kind")
		return Value{}
	}
}

func (d *walDecoder) row() []Value {
	n := d.u64()
	if d.err != nil || n > uint64(len(d.b)) { // each value is ≥ 1 byte
		d.fail("row")
		return nil
	}
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = d.value()
	}
	return vals
}

func (d *walDecoder) schema() *Schema {
	s := &Schema{Name: d.str()}
	nCols := d.u64()
	if d.err != nil || nCols > uint64(len(d.b))+1 {
		d.fail("columns")
		return s
	}
	for i := uint64(0); i < nCols && d.err == nil; i++ {
		c := Column{Name: d.str(), Kind: Kind(d.byteVal())}
		flags := d.byteVal()
		c.NotNull = flags&schemaColNotNull != 0
		c.PrimaryKey = flags&schemaColPrimaryKey != 0
		if flags&schemaColHasDefault != 0 {
			c.Default = d.value()
		}
		s.Columns = append(s.Columns, c)
	}
	nIx := d.u64()
	if d.err != nil || nIx > uint64(len(d.b))+1 {
		d.fail("indexes")
		return s
	}
	for i := uint64(0); i < nIx && d.err == nil; i++ {
		ix := IndexSpec{Column: d.str(), Name: d.str(), Unique: false}
		ix.Unique = d.byteVal() != 0
		s.Indexes = append(s.Indexes, ix)
	}
	nFK := d.u64()
	if d.err != nil || nFK > uint64(len(d.b))+1 {
		d.fail("foreign keys")
		return s
	}
	for i := uint64(0); i < nFK && d.err == nil; i++ {
		fk := ForeignKey{Column: d.str(), ParentTable: d.str()}
		fk.OnDelete = ReferentialAction(d.byteVal())
		fk.Name = d.str()
		s.ForeignKeys = append(s.ForeignKeys, fk)
	}
	return s
}

// --- log scanning -------------------------------------------------------------

// walScan is the result of reading a log file tolerantly: the payloads of
// every intact record, the byte length of that valid prefix, and what (if
// anything) was wrong with the tail.
type walScan struct {
	payloads [][]byte
	validLen int64
	tornTail int64 // bytes beyond the valid prefix (0 = clean EOF)
	corrupt  bool  // tail failed its checksum (vs merely being cut short)
}

// scanWAL splits raw log bytes into records, stopping at the first torn or
// corrupt one. A record cut mid-header or mid-payload is "torn" (the classic
// crash-during-append); an intact-length record whose checksum fails is
// "corrupt" (bit rot or a torn sector inside the payload). Either way
// everything before it is trusted and everything from it on is discarded.
func scanWAL(data []byte) walScan {
	var s walScan
	off := int64(0)
	n := int64(len(data))
	for n-off >= walHeaderSize {
		length := int64(binary.BigEndian.Uint32(data[off : off+4]))
		crc := binary.BigEndian.Uint32(data[off+4 : off+8])
		if length > walMaxRecord {
			s.corrupt = true
			break
		}
		if n-off-walHeaderSize < length {
			break // torn: the payload never finished reaching the disk
		}
		payload := data[off+walHeaderSize : off+walHeaderSize+length]
		if crc32.Checksum(payload, crcTable) != crc {
			s.corrupt = true
			break
		}
		s.payloads = append(s.payloads, payload)
		off += walHeaderSize + length
	}
	s.validLen = off
	s.tornTail = n - off
	return s
}
