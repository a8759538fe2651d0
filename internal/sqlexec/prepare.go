package sqlexec

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"feralcc/internal/sqlfront"
	"feralcc/internal/storage"
)

// Prepared is a statement that has been parsed once and bound to the catalog:
// the AST, the placeholder count, and the schemas of every referenced table,
// all resolved at a recorded schema epoch. A Prepared is immutable after
// construction, so one instance may be executed concurrently from any number
// of sessions; staleness is detected by comparing its epoch against the
// database's current one (every DDL bumps it).
type Prepared struct {
	sql     string
	stmt    sqlfront.Statement
	nParams int
	epoch   uint64
	// schemas maps lower-cased table names referenced by the statement to
	// their resolved schemas. Tables that did not exist at prepare time are
	// absent and fall back to per-execution catalog lookup.
	schemas map[string]*storage.Schema
}

// SQL returns the statement text the plan was prepared from.
func (p *Prepared) SQL() string { return p.sql }

// NumParams returns the number of `?` placeholders.
func (p *Prepared) NumParams() int { return p.nParams }

// Epoch returns the schema epoch the plan was resolved at.
func (p *Prepared) Epoch() uint64 { return p.epoch }

// Begins reports whether the statement opens a transaction (BEGIN, with or
// without an isolation level).
func (p *Prepared) Begins() bool {
	_, ok := p.stmt.(*sqlfront.BeginStmt)
	return ok
}

// Prepare parses sql and resolves the schemas it references, producing a
// reusable plan. Parse errors surface immediately; unknown tables do not
// (the statement may legitimately precede its CREATE TABLE), they simply
// stay unresolved and are looked up at execution.
func (s *Session) Prepare(sql string) (*Prepared, error) {
	start := time.Now()
	stmt, err := sqlfront.Parse(sql)
	if err != nil {
		return nil, err
	}
	// Read the epoch before resolving: a DDL racing with resolution then
	// leaves the plan with an old epoch and it is conservatively rebuilt on
	// first use, never executed stale.
	epoch := s.db.SchemaEpoch()
	p := &Prepared{sql: sql, stmt: stmt, nParams: sqlfront.CountPlaceholders(stmt), epoch: epoch}
	if names := tableRefs(stmt); len(names) > 0 {
		p.schemas = make(map[string]*storage.Schema, len(names))
		for _, name := range names {
			if sc, err := s.db.Table(name); err == nil {
				p.schemas[strings.ToLower(name)] = sc
			}
		}
	}
	// Stage the parse+resolve time; the next execPlan on this session folds
	// it into that statement's parse span.
	s.pendingParse += time.Since(start)
	return p, nil
}

// Refreshed returns p if it is still current, or a newly prepared plan for
// the same SQL when the schema epoch has moved. The argument is never
// mutated (it may be shared).
func (s *Session) Refreshed(p *Prepared) (*Prepared, error) {
	if p.epoch == s.db.SchemaEpoch() {
		return p, nil
	}
	return s.Prepare(p.sql)
}

// ExecutePrepared executes a prepared plan, transparently re-preparing it
// first if DDL has invalidated it — a stale plan is never executed.
func (s *Session) ExecutePrepared(p *Prepared, args ...storage.Value) (*Result, error) {
	p, err := s.Refreshed(p)
	if err != nil {
		return nil, err
	}
	return s.execPlan(p, args)
}

// ExecutePreparedContext is ExecutePrepared bounded by ctx: a statement whose
// context is already done never starts, and a context deadline becomes the
// statement deadline of the executing transaction, so lock waits give up with
// storage.ErrStmtDeadline when the caller's budget runs out.
func (s *Session) ExecutePreparedContext(ctx context.Context, p *Prepared, args ...storage.Value) (*Result, error) {
	if ctx == nil {
		return s.ExecutePrepared(p, args...)
	}
	if err := ctx.Err(); err != nil {
		return nil, s.refuse(err)
	}
	dl, _ := ctx.Deadline()
	return s.ExecutePreparedDeadline(dl, p, args...)
}

// ExecutePreparedDeadline is ExecutePrepared bounded by an absolute deadline
// (the zero time means none). It is ExecutePreparedContext without a context:
// the executor only ever reads the deadline, so callers that hold a bare
// instant — the wire server, re-anchoring a request's relative budget — need
// not build a context and its timer per statement. A deadline already passed
// fails the statement before it starts.
func (s *Session) ExecutePreparedDeadline(dl time.Time, p *Prepared, args ...storage.Value) (*Result, error) {
	if dl.IsZero() {
		return s.ExecutePrepared(p, args...)
	}
	if !time.Now().Before(dl) {
		return nil, s.refuse(context.DeadlineExceeded)
	}
	s.stmtDeadline = dl
	defer func() { s.stmtDeadline = time.Time{} }()
	return s.ExecutePrepared(p, args...)
}

// refuse fails a statement that never starts because its context is done.
// It still fails *as a statement*: inside an explicit transaction that aborts
// the transaction, matching the engine's PostgreSQL-style semantics. The wire
// server relies on this to discard a cancelled client's open tx.
func (s *Session) refuse(err error) error {
	s.Reset()
	return ctxStatementErr(err)
}

// ctxStatementErr maps a context error onto the engine's taxonomy: deadline
// expiry is a statement timeout, cancellation passes through (wrapped so it
// still satisfies errors.Is(err, context.Canceled)).
func ctxStatementErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %v", storage.ErrStmtDeadline, err)
	}
	return fmt.Errorf("sqlexec: statement aborted: %w", err)
}

// schemaFor resolves a table schema, preferring the plan's cached resolution
// (valid for the plan's epoch) over a catalog lookup.
func (p *Prepared) schemaFor(tx *storage.Tx, name string) (*storage.Schema, error) {
	if sc, ok := p.schemas[strings.ToLower(name)]; ok {
		return sc, nil
	}
	return tx.Database().Table(name)
}

// tableRefs lists the table names a statement reads or writes.
func tableRefs(stmt sqlfront.Statement) []string {
	switch t := stmt.(type) {
	case *sqlfront.SelectStmt:
		names := []string{t.From.Name}
		for _, j := range t.Joins {
			names = append(names, j.Table.Name)
		}
		return names
	case *sqlfront.InsertStmt:
		return []string{t.Table}
	case *sqlfront.UpdateStmt:
		return []string{t.Table}
	case *sqlfront.DeleteStmt:
		return []string{t.Table}
	}
	return nil
}

// --- plan cache --------------------------------------------------------------

// planShards is the number of independently locked cache segments. A power
// of two so the hash can be masked.
const planShards = 16

// PlanCache is a sharded, size-bounded LRU of prepared plans keyed by SQL
// text, shared by every session of one database. Entries prepared at an old
// schema epoch are treated as misses and replaced, so DDL invalidates the
// whole cache at the cost of one re-parse per statement, not a stop-the-world
// sweep.
type PlanCache struct {
	shards [planShards]planShard
	// perShard is the entry budget of each shard (total capacity divided
	// evenly, at least one).
	perShard int

	hits      uint64 // atomic
	misses    uint64 // atomic
	evictions uint64 // atomic
}

type planShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // of *planEntry, most recent first
}

type planEntry struct {
	sql string
	p   *Prepared
}

// DefaultPlanCacheSize bounds a cache created by NewPlanCache(0).
const DefaultPlanCacheSize = 1024

// NewPlanCache creates a cache holding at most capacity plans (0 means
// DefaultPlanCacheSize).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	per := capacity / planShards
	if per < 1 {
		per = 1
	}
	c := &PlanCache{perShard: per}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// Get returns a current plan for sql, preparing (and caching) one on miss or
// on epoch staleness. The session supplies parsing and schema resolution; all
// sessions passing through one cache must belong to the same database.
func (c *PlanCache) Get(s *Session, sql string) (*Prepared, error) {
	sh := &c.shards[fnv32a(sql)&(planShards-1)]
	epoch := s.db.SchemaEpoch()
	sh.mu.Lock()
	if el, ok := sh.entries[sql]; ok {
		e := el.Value.(*planEntry)
		if e.p.epoch == epoch {
			sh.lru.MoveToFront(el)
			sh.mu.Unlock()
			atomic.AddUint64(&c.hits, 1)
			mPlanHits.Inc()
			s.pendingCacheHit = true
			return e.p, nil
		}
		sh.lru.Remove(el)
		delete(sh.entries, sql)
	}
	sh.mu.Unlock()

	atomic.AddUint64(&c.misses, 1)
	mPlanMisses.Inc()
	s.pendingCacheHit = false
	p, err := s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	if el, ok := sh.entries[sql]; ok {
		// A concurrent miss repopulated the slot; keep the newer plan.
		el.Value = &planEntry{sql: sql, p: p}
		sh.lru.MoveToFront(el)
	} else {
		sh.entries[sql] = sh.lru.PushFront(&planEntry{sql: sql, p: p})
		for sh.lru.Len() > c.perShard {
			oldest := sh.lru.Back()
			sh.lru.Remove(oldest)
			delete(sh.entries, oldest.Value.(*planEntry).sql)
			atomic.AddUint64(&c.evictions, 1)
			mPlanEvictions.Inc()
		}
	}
	sh.mu.Unlock()
	return p, nil
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].lru.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}

// CacheStats are cumulative cache outcome counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
}

// Stats returns cumulative counters.
func (c *PlanCache) Stats() CacheStats {
	return CacheStats{
		Hits:      atomic.LoadUint64(&c.hits),
		Misses:    atomic.LoadUint64(&c.misses),
		Evictions: atomic.LoadUint64(&c.evictions),
	}
}

// fnv32a hashes a string (FNV-1a) for shard selection.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
