package orm

import (
	"context"
	"fmt"
	"strings"
	"time"

	"feralcc/internal/anomalywatch"
	"feralcc/internal/db"
	"feralcc/internal/storage"
)

// Session binds a model registry to one database connection — the analogue
// of one Rails worker's ActiveRecord connection. A Session must be used from
// one goroutine at a time; concurrency in the experiments comes from many
// sessions (one per application worker), exactly as in the paper's
// multi-process Unicorn deployments.
type Session struct {
	registry *Registry
	conn     db.Conn
	inTx     bool
	// clock supplies timestamps (overridable in tests).
	clock func() time.Time
	// ThinkTime simulates the application-tier processing (Ruby VM work,
	// template rendering, network hops) that separates a validation's SELECT
	// probe from the subsequent write in a real Rails deployment. The feral
	// races of Section 5 exist precisely because this window is nonzero;
	// with the in-memory engine the window would otherwise be nanoseconds.
	// Save sleeps this long between validating and writing, and Destroy
	// sleeps between collecting a feral cascade's children and deleting.
	ThinkTime time.Duration
	// Retry bounds automatic re-execution of the transactions Save, Destroy
	// and Valid open implicitly when they fail retryably (serialization
	// abort, deadlock victim, dropped connection). The zero value disables
	// retries, preserving the bare feral behavior the experiments measure;
	// arming it is the systematic version of the ad-hoc rescue/retry loops
	// the paper found hand-rolled in its corpus. Explicit Transaction blocks
	// are never retried automatically: their closures' side effects are the
	// caller's to re-run.
	Retry db.RetryPolicy
	// retries counts transactions re-attempted under Retry.
	retries uint64
	// ctx, when set via SetContext, bounds every statement the session
	// issues (deadline propagation down to engine lock waits).
	ctx context.Context
	// stmts caches prepared statements by SQL text. The ORM renders the
	// same statement shapes over and over (the validation probe, INSERT,
	// UPDATE ... WHERE id = ?), so each is prepared once per session.
	stmts map[string]db.Stmt
	// texts caches the rendered text of those shapes (see sqlText), so the
	// hot paths look their statement up instead of formatting it per call.
	texts map[sqlKey]string
}

// sqlKey names one rendered statement shape: the model, the statement, and
// what varies within it.
type sqlKey struct {
	m           *Model
	op          sqlOp
	attr, scope string
	// cols is the column set of an INSERT: bit 0 the id, bit i+1 Attrs[i].
	cols uint64
}

type sqlOp uint8

const (
	sqlFind sqlOp = iota
	sqlWhere
	sqlUniqueProbe
	sqlUniqueFold
	sqlInsert
)

// sqlText returns the statement text for k, rendering it with build the
// first time. The text is exactly what build renders, so the statement
// cache sees the same keys either way.
func (s *Session) sqlText(k sqlKey, build func() string) string {
	if q, ok := s.texts[k]; ok {
		return q
	}
	q := build()
	if len(s.texts) < maxSessionStmts {
		s.texts[k] = q
	}
	return q
}

// maxSessionStmts bounds the per-session statement cache; statements beyond
// it execute unprepared rather than growing the map without bound.
const maxSessionStmts = 256

// NewSession creates a session over conn.
func NewSession(registry *Registry, conn db.Conn) *Session {
	return &Session{registry: registry, conn: conn, clock: time.Now,
		stmts: make(map[string]db.Stmt), texts: make(map[sqlKey]string)}
}

// SetContext bounds every subsequent statement of the session by ctx: its
// deadline becomes each statement's deadline, enforced down to engine lock
// waits (and across the wire for remote connections). Pass nil to clear.
func (s *Session) SetContext(ctx context.Context) { s.ctx = ctx }

// Context returns the session's current statement context (may be nil).
func (s *Session) Context() context.Context { return s.ctx }

// Retries returns the number of transactions re-attempted under Retry.
func (s *Session) Retries() uint64 { return s.retries }

// exec runs sql through the session's prepared-statement cache: the first
// use of a statement prepares it on the connection, subsequent uses execute
// the retained handle.
func (s *Session) exec(sql string, args ...storage.Value) (*db.Result, error) {
	if st, ok := s.stmts[sql]; ok {
		return s.execStmt(st, args)
	}
	if len(s.stmts) >= maxSessionStmts {
		if s.ctx != nil {
			return s.conn.ExecContext(s.ctx, sql, args...)
		}
		return s.conn.Exec(sql, args...)
	}
	st, err := s.conn.Prepare(sql)
	if err != nil {
		return nil, err
	}
	s.stmts[sql] = st
	return s.execStmt(st, args)
}

func (s *Session) execStmt(st db.Stmt, args []storage.Value) (*db.Result, error) {
	if s.ctx != nil {
		return st.ExecContext(s.ctx, args...)
	}
	return st.Exec(args...)
}

// Registry returns the session's model registry.
func (s *Session) Registry() *Registry { return s.registry }

// Conn returns the underlying connection (for raw SQL escapes, as Rails
// exposes execute()).
func (s *Session) Conn() db.Conn { return s.conn }

// Migrate creates the tables for every registered model. Like Rails schema
// generation, it carries over NOTHING from validations or associations:
// schema constraints (unique indexes, foreign keys) require separate,
// explicit migrations (AddUniqueIndex / AddForeignKey).
func (s *Session) Migrate() error {
	for _, m := range s.registry.Models() {
		if _, err := s.conn.Exec(m.CreateTableSQL()); err != nil {
			return err
		}
	}
	return nil
}

// AddUniqueIndex is the migration remedy the paper applied to stop duplicate
// records (footnote 10): an in-database unique index, declared separately
// from the model.
func (s *Session) AddUniqueIndex(modelName, attr string) error {
	m, err := s.registry.Model(modelName)
	if err != nil {
		return err
	}
	_, err = s.conn.Exec(fmt.Sprintf("CREATE UNIQUE INDEX ON %s (%s)", m.Table(), attr))
	return err
}

// AddIndex adds a plain secondary index (no constraint semantics).
func (s *Session) AddIndex(modelName, attr string) error {
	m, err := s.registry.Model(modelName)
	if err != nil {
		return err
	}
	_, err = s.conn.Exec(fmt.Sprintf("CREATE INDEX ON %s (%s)", m.Table(), attr))
	return err
}

// AddForeignKey is the migration remedy for dangling associations
// (footnote 13): an in-database referential constraint on the child model's
// belongs_to association, with the given ON DELETE action.
func (s *Session) AddForeignKey(childModel, associationName string, onDelete storage.ReferentialAction) error {
	child, err := s.registry.Model(childModel)
	if err != nil {
		return err
	}
	a := child.association(associationName)
	if a == nil || a.Kind != BelongsTo {
		return fmt.Errorf("%w: %s has no belongs_to %s", ErrBadDefinition, childModel, associationName)
	}
	parent, err := s.registry.Model(a.Target)
	if err != nil {
		return err
	}
	action := "NO ACTION"
	switch onDelete {
	case storage.Cascade:
		action = "CASCADE"
	case storage.SetNull:
		action = "SET NULL"
	}
	_, err = s.conn.Exec(fmt.Sprintf(
		"ALTER TABLE %s ADD FOREIGN KEY (%s) REFERENCES %s ON DELETE %s",
		child.Table(), a.fkFor(), parent.Table(), action))
	return err
}

// New instantiates an unsaved record.
func (s *Session) New(modelName string, attrs map[string]storage.Value) (*Record, error) {
	m, err := s.registry.Model(modelName)
	if err != nil {
		return nil, err
	}
	rec := &Record{model: m, attrs: make(map[string]storage.Value, len(attrs))}
	for i := range m.Attrs {
		if !m.Attrs[i].Default.IsNull() {
			rec.attrs[strings.ToLower(m.Attrs[i].Name)] = m.Attrs[i].Default
		}
	}
	if err := rec.SetAll(attrs); err != nil {
		return nil, err
	}
	return rec, nil
}

// Create is New followed by Save.
func (s *Session) Create(modelName string, attrs map[string]storage.Value) (*Record, error) {
	rec, err := s.New(modelName, attrs)
	if err != nil {
		return nil, err
	}
	if err := s.Save(rec); err != nil {
		return rec, err
	}
	return rec, nil
}

// Save runs the feral save protocol of Appendix B: open a transaction at the
// database's default isolation level (unless one is already open via
// Transaction), run every declared validation sequentially, then insert or
// update the row, then commit. Validation failures roll back and return a
// *ValidationError wrapping ErrRecordInvalid.
func (s *Session) Save(rec *Record) error {
	// Snapshot the record's identity so a retried transaction (whose first
	// attempt may have set persisted/id before its COMMIT aborted) replays
	// from the same starting state.
	persisted, id, lockVersion := rec.persisted, rec.id, rec.lockVersion
	return s.withTx(func() error {
		rec.persisted, rec.id, rec.lockVersion = persisted, id, lockVersion
		if err := s.runValidations(rec, false); err != nil {
			return err
		}
		if s.ThinkTime > 0 {
			time.Sleep(s.ThinkTime)
		}
		if rec.persisted {
			return s.performUpdate(rec)
		}
		return s.performInsert(rec)
	})
}

// Valid runs the validations without saving (Rails valid?).
func (s *Session) Valid(rec *Record) (bool, error) {
	var valid bool
	err := s.withTx(func() error {
		err := s.runValidations(rec, false)
		valid = err == nil
		if err != nil {
			if _, isValidation := err.(*ValidationError); isValidation {
				return nil // not an infrastructure error; tx can commit empty
			}
			return err
		}
		return nil
	})
	return valid, err
}

// Destroy removes a record and ferally cascades dependent associations —
// the application-level cascade whose races Section 5.4 quantifies: children
// committed after the cascade's SELECT but before the parent delete commits
// are orphaned.
func (s *Session) Destroy(rec *Record) error {
	if !rec.persisted {
		return fmt.Errorf("%w: cannot destroy unsaved %s", ErrNotPersisted, rec.model.Name)
	}
	return s.withTx(func() error {
		rec.persisted = true
		return s.destroyTree(rec)
	})
}

func (s *Session) destroyTree(rec *Record) error {
	cascaded := false
	for i := range rec.model.Associations {
		a := &rec.model.Associations[i]
		if a.Kind == BelongsTo || a.Dependent == DependentNone {
			continue
		}
		target, err := s.registry.Model(a.Target)
		if err != nil {
			return err
		}
		cascaded = true
		switch a.Dependent {
		case DependentDestroy:
			// Instantiate-and-destroy each child, as Rails does: one SELECT
			// to find children, then per-child DELETEs. The window between
			// the SELECT and the commit is the orphan race.
			children, err := s.Where(target.Name, a.ForeignKey, storage.Int(rec.id))
			if err != nil {
				return err
			}
			for _, child := range children {
				if err := s.destroyTree(child); err != nil {
					return err
				}
			}
		case DependentDelete:
			if _, err := s.exec(fmt.Sprintf(
				"DELETE FROM %s WHERE %s = ?", target.Table(), a.ForeignKey),
				storage.Int(rec.id)); err != nil {
				return err
			}
		}
	}
	if cascaded {
		// A feral cascade is the appserver tier's association-count
		// maintenance; the probe itself can't see its own race, so it counts
		// as a check with no violation (census sweeps count the orphans).
		anomalywatch.ObserveInvariant(anomalywatch.TierAppserver, anomalywatch.InvAssociationCount, false)
	}
	if cascaded && s.ThinkTime > 0 {
		// The window between the feral cascade's child SELECT and the
		// parent's deletion, in which concurrent child inserts are missed.
		time.Sleep(s.ThinkTime)
	}
	if _, err := s.exec(fmt.Sprintf("DELETE FROM %s WHERE id = ?", rec.model.Table()),
		storage.Int(rec.id)); err != nil {
		return err
	}
	rec.persisted = false
	return nil
}

// Transaction runs fn inside an application-declared transaction at the
// database default isolation level — the Rails `transaction do` block that
// the corpus used 37x less often than validations.
func (s *Session) Transaction(fn func() error) error {
	return s.TransactionAt("", fn)
}

// TransactionAt runs fn at an explicit isolation level (Rails 4.0's
// transaction(isolation: ...)). Level is a SQL-style string such as
// "SERIALIZABLE"; "" means the database default.
func (s *Session) TransactionAt(level string, fn func() error) error {
	if s.inTx {
		return ErrNestedTransaction
	}
	begin := "BEGIN"
	if level != "" {
		begin = "BEGIN ISOLATION LEVEL " + level
	}
	if _, err := s.exec(begin); err != nil {
		return err
	}
	s.inTx = true
	defer func() { s.inTx = false }()
	if err := fn(); err != nil {
		_, _ = s.exec("ROLLBACK")
		return err
	}
	_, err := s.exec("COMMIT")
	return err
}

// withTx wraps fn in a transaction unless one is already open (validations
// and writes of a save share one transaction either way). When the session
// opened the transaction itself and it fails retryably, the whole body is
// re-run under the Retry policy — safe because Save and Destroy restore
// their record's pre-attempt state at the top of fn. A transaction the
// caller opened is never retried here: only the caller can re-run its body.
func (s *Session) withTx(fn func() error) error {
	if s.inTx {
		return fn()
	}
	err := s.Transaction(fn)
	for attempt := 1; err != nil && db.Retryable(err) && s.Retry.Enabled() && attempt <= s.Retry.MaxRetries; attempt++ {
		// Same gates as db.Reliable: the backoff (floored by any overload
		// retry-after hint) must fit in the remaining deadline, and the retry
		// budget must grant a token.
		backoff := s.Retry.BackoffFor(attempt, err)
		if s.ctx != nil {
			if s.ctx.Err() != nil {
				break
			}
			if dl, ok := s.ctx.Deadline(); ok && time.Until(dl) <= backoff {
				break
			}
		}
		if !s.Retry.Budget.Allow() {
			break
		}
		time.Sleep(backoff)
		s.retries++
		err = s.Transaction(fn)
	}
	return err
}

// Lock takes a pessimistic row lock on the record (Rails lock!), re-reading
// its attributes under the lock. Must run inside Transaction to be of any
// use, and returns ErrNestedTransaction-adjacent misuse otherwise.
func (s *Session) Lock(rec *Record) error {
	if !s.inTx {
		return fmt.Errorf("orm: Lock outside a transaction holds nothing: wrap in Session.Transaction")
	}
	if !rec.persisted {
		return fmt.Errorf("%w: cannot lock unsaved %s", ErrNotPersisted, rec.model.Name)
	}
	res, err := s.exec(fmt.Sprintf(
		"SELECT %s FROM %s WHERE id = ? FOR UPDATE", s.columnList(rec.model), rec.model.Table()),
		storage.Int(rec.id))
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("%w: %s id=%d", ErrRecordNotFound, rec.model.Name, rec.id)
	}
	s.populate(rec, rec.model, res.Rows[0])
	return nil
}

// Find loads a record by primary key.
func (s *Session) Find(modelName string, id int64) (*Record, error) {
	m, err := s.registry.Model(modelName)
	if err != nil {
		return nil, err
	}
	sql := s.sqlText(sqlKey{m: m, op: sqlFind}, func() string {
		return fmt.Sprintf("SELECT %s FROM %s WHERE id = ? LIMIT 1", s.columnList(m), m.Table())
	})
	res, err := s.exec(sql, storage.Int(id))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("%w: %s id=%d", ErrRecordNotFound, modelName, id)
	}
	rec := &Record{model: m, attrs: make(map[string]storage.Value)}
	s.populate(rec, m, res.Rows[0])
	return rec, nil
}

// Reload refreshes a record from the database.
func (s *Session) Reload(rec *Record) error {
	fresh, err := s.Find(rec.model.Name, rec.id)
	if err != nil {
		return err
	}
	rec.attrs = fresh.attrs
	rec.lockVersion = fresh.lockVersion
	rec.persisted = true
	return nil
}

// Where returns records whose attribute equals value.
func (s *Session) Where(modelName, attr string, value storage.Value) ([]*Record, error) {
	m, err := s.registry.Model(modelName)
	if err != nil {
		return nil, err
	}
	if m.attr(attr) == nil && !strings.EqualFold(attr, "id") {
		return nil, fmt.Errorf("%w: %s.%s", ErrUnknownAttr, modelName, attr)
	}
	sql := s.sqlText(sqlKey{m: m, op: sqlWhere, attr: attr}, func() string {
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s = ?", s.columnList(m), m.Table(), attr)
	})
	res, err := s.exec(sql, value)
	if err != nil {
		return nil, err
	}
	return s.materialize(m, res), nil
}

// All returns every record of a model.
func (s *Session) All(modelName string) ([]*Record, error) {
	m, err := s.registry.Model(modelName)
	if err != nil {
		return nil, err
	}
	res, err := s.exec(fmt.Sprintf("SELECT %s FROM %s ORDER BY id", s.columnList(m), m.Table()))
	if err != nil {
		return nil, err
	}
	return s.materialize(m, res), nil
}

// Count returns the number of rows of a model.
func (s *Session) Count(modelName string) (int64, error) {
	m, err := s.registry.Model(modelName)
	if err != nil {
		return 0, err
	}
	res, err := s.exec(fmt.Sprintf("SELECT COUNT(*) FROM %s", m.Table()))
	if err != nil {
		return 0, err
	}
	return res.Rows[0][0].I, nil
}

// --- internals ---------------------------------------------------------------

// runValidations executes each declared validation in order, collecting all
// failure messages as Rails does.
func (s *Session) runValidations(rec *Record, onDelete bool) error {
	ctx := &ValidationContext{Conn: s.conn, Session: s, Record: rec, OnDelete: onDelete}
	rec.errs = rec.errs[:0]
	for _, v := range rec.model.Validations {
		msg, err := v.Validate(ctx)
		if err != nil {
			return err
		}
		observeFeralCheck(v, msg != "")
		if msg != "" {
			rec.errs = append(rec.errs, msg)
		}
	}
	if len(rec.errs) > 0 {
		return &ValidationError{Model: rec.model.Name, Messages: rec.Errors()}
	}
	return nil
}

// observeFeralCheck feeds the invariant observatory's appserver tier: feral
// uniqueness probes and association-presence probes are the application-level
// enforcement of the same invariants the storage tier checks race-free at
// commit time, and the per-tier violation-rate divergence on /metrics is the
// paper's headline phenomenon made observable.
func observeFeralCheck(v Validation, violated bool) {
	switch vv := v.(type) {
	case *Uniqueness:
		anomalywatch.ObserveInvariant(anomalywatch.TierAppserver, anomalywatch.InvUniqueness, violated)
	case *Presence:
		if vv.Association != "" {
			anomalywatch.ObserveInvariant(anomalywatch.TierAppserver, anomalywatch.InvForeignKey, violated)
		}
	case *Associated:
		anomalywatch.ObserveInvariant(anomalywatch.TierAppserver, anomalywatch.InvForeignKey, violated)
	}
}

// columnList renders the SELECT list for a model: id, attrs, lock_version?,
// timestamps?.
func (s *Session) columnList(m *Model) string {
	cols := make([]string, 0, len(m.Attrs)+4)
	cols = append(cols, "id")
	for i := range m.Attrs {
		cols = append(cols, m.Attrs[i].Name)
	}
	if m.OptimisticLocking {
		cols = append(cols, "lock_version")
	}
	if m.Timestamps {
		cols = append(cols, "created_at", "updated_at")
	}
	return strings.Join(cols, ", ")
}

// populate fills a record from a row in columnList order.
func (s *Session) populate(rec *Record, m *Model, row []storage.Value) {
	rec.id = row[0].I
	rec.persisted = true
	i := 1
	for _, a := range m.Attrs {
		rec.attrs[strings.ToLower(a.Name)] = row[i]
		i++
	}
	if m.OptimisticLocking {
		rec.lockVersion = row[i].I
		i++
	}
	_ = i
}

func (s *Session) materialize(m *Model, res *db.Result) []*Record {
	out := make([]*Record, 0, len(res.Rows))
	for _, row := range res.Rows {
		rec := &Record{model: m, attrs: make(map[string]storage.Value, len(m.Attrs))}
		s.populate(rec, m, row)
		out = append(out, rec)
	}
	return out
}

func (s *Session) performInsert(rec *Record) error {
	m := rec.model
	args := make([]storage.Value, 0, len(m.Attrs)+4)
	var cols uint64
	if rec.id != 0 {
		cols |= 1
		args = append(args, storage.Int(rec.id))
	}
	for i, a := range m.Attrs {
		if v, ok := rec.attrs[strings.ToLower(a.Name)]; ok {
			cols |= 1 << (i + 1)
			args = append(args, v)
		}
	}
	if m.OptimisticLocking {
		args = append(args, storage.Int(0))
		rec.lockVersion = 0
	}
	if m.Timestamps {
		now := storage.Time(s.clock().UTC())
		args = append(args, now, now)
	}
	var sql string
	if len(m.Attrs) < 64 {
		sql = s.sqlText(sqlKey{m: m, op: sqlInsert, cols: cols}, func() string { return insertSQL(rec) })
	} else {
		// Too many attributes for the column-set key; render every time.
		sql = insertSQL(rec)
	}
	res, err := s.exec(sql, args...)
	if err != nil {
		return err
	}
	rec.id = res.LastInsertID
	rec.persisted = true
	return nil
}

// insertSQL renders the INSERT for the record's column set in the argument
// order performInsert binds: id, set attributes, lock_version, timestamps.
func insertSQL(rec *Record) string {
	m := rec.model
	cols := make([]string, 0, len(m.Attrs)+4)
	if rec.id != 0 {
		cols = append(cols, "id")
	}
	for _, a := range m.Attrs {
		if _, ok := rec.attrs[strings.ToLower(a.Name)]; ok {
			cols = append(cols, a.Name)
		}
	}
	if m.OptimisticLocking {
		cols = append(cols, "lock_version")
	}
	if m.Timestamps {
		cols = append(cols, "created_at", "updated_at")
	}
	if len(cols) == 0 {
		// A model with no set attributes still inserts a row; give the
		// engine at least the id column to satisfy the column-list grammar.
		return fmt.Sprintf("INSERT INTO %s (id) VALUES (NULL)", m.Table())
	}
	marks := strings.Repeat("?, ", len(cols))
	return fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
		m.Table(), strings.Join(cols, ", "), marks[:len(marks)-2])
}

func (s *Session) performUpdate(rec *Record) error {
	m := rec.model
	var sets []string
	var args []storage.Value
	for _, a := range m.Attrs {
		if v, ok := rec.attrs[strings.ToLower(a.Name)]; ok {
			sets = append(sets, a.Name+" = ?")
			args = append(args, v)
		}
	}
	if m.Timestamps {
		sets = append(sets, "updated_at = ?")
		args = append(args, storage.Time(s.clock().UTC()))
	}
	where := "id = ?"
	if m.OptimisticLocking {
		// Optimistic locking per Section 3.1: atomically bump lock_version
		// iff it has not changed since this record was read.
		sets = append(sets, "lock_version = ?")
		args = append(args, storage.Int(rec.lockVersion+1))
		where += " AND lock_version = ?"
	}
	args = append(args, storage.Int(rec.id))
	if m.OptimisticLocking {
		args = append(args, storage.Int(rec.lockVersion))
	}
	sql := fmt.Sprintf("UPDATE %s SET %s WHERE %s", m.Table(), strings.Join(sets, ", "), where)
	res, err := s.exec(sql, args...)
	if err != nil {
		return err
	}
	if res.RowsAffected == 0 {
		if m.OptimisticLocking {
			return fmt.Errorf("%w: %s id=%d lock_version=%d",
				ErrStaleObject, m.Name, rec.id, rec.lockVersion)
		}
		return fmt.Errorf("%w: %s id=%d", ErrRecordNotFound, m.Name, rec.id)
	}
	if m.OptimisticLocking {
		rec.lockVersion++
	}
	return nil
}
