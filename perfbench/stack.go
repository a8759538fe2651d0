package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"feralcc/internal/appserver"
	"feralcc/internal/db"
	"feralcc/internal/orm"
	"feralcc/internal/storage"
	"feralcc/internal/wire"
)

// poolSize is the number of Unicorn-style workers, each with its own wire
// connection.
const poolSize = 2

// stackSpec describes one serving deployment.
type stackSpec struct {
	uniqueIndex bool // CREATE UNIQUE INDEX on key: the validation is an index probe
	durable     bool // WAL in a data directory (see storeOptions)
}

// stack is the paper's deployment in one process: HTTP front end → 2-worker
// pool → ORM sessions → wire clients → wire server → executor → storage, at
// READ COMMITTED, over loopback TCP.
type stack struct {
	spec    stackSpec
	dataDir string
	store   *storage.Database
	wsrv    *wire.Server
	served  chan error
	pool    *appserver.Pool
	app     *appserver.Server
	baseURL string
}

// storeOptions opens durable stores with SyncPolicy=interval: every commit
// writes its WAL record before it is acknowledged, and a background ticker
// fsyncs every 50 ms. With SyncPolicy=always each commit waits for its own
// fsync, and on a shared virtual disk that wait varied 3.5-fold between runs,
// far more than any regression worth catching.
func storeOptions(dataDir string) storage.Options {
	opts := storage.Options{DefaultIsolation: storage.ReadCommitted}
	if dataDir != "" {
		opts.DataDir = dataDir
		opts.SyncPolicy = storage.SyncInterval
	}
	return opts
}

// buildStack starts the deployment and preloads the table. With rec set,
// every worker connection goes through the timing decorator. dataDir is used
// only by durable stacks and must be empty.
func buildStack(spec stackSpec, seed int64, dataDir string, rec *recorder) (*stack, error) {
	s := &stack{spec: spec}
	var err error
	if spec.durable {
		s.dataDir = dataDir
		s.store, err = storage.OpenDir(storeOptions(dataDir))
	} else {
		s.store = storage.Open(storeOptions(""))
	}
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	s.wsrv = wire.NewServer(s.store, nil)
	if err := s.wsrv.Listen("127.0.0.1:0"); err != nil {
		s.store.Close()
		return nil, fmt.Errorf("wire listen: %w", err)
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.wsrv.Serve() }()

	if err := s.load(seed); err != nil {
		s.close()
		return nil, err
	}

	registry, err := appserver.UniquenessModels()
	if err != nil {
		s.close()
		return nil, err
	}
	conns := make([]db.Conn, 0, poolSize)
	for i := 0; i < poolSize; i++ {
		c, err := s.dial()
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			s.close()
			return nil, err
		}
		if rec != nil {
			conns = append(conns, rec.wrap(c))
		} else {
			conns = append(conns, c)
		}
	}
	next := 0
	s.pool, err = appserver.NewPool(poolSize, registry, func() db.Conn {
		next++
		return conns[next-1]
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.app = appserver.NewServer(s.pool)
	if err := s.app.Listen("127.0.0.1:0"); err != nil {
		s.close()
		return nil, fmt.Errorf("http listen: %w", err)
	}
	s.baseURL = "http://" + s.app.Addr()
	return s, nil
}

func (s *stack) dial() (*wire.Client, error) {
	c, err := wire.DialOptions(s.wsrv.Addr(), wire.Options{Timeout: 30 * time.Second})
	if err != nil {
		return nil, fmt.Errorf("wire dial: %w", err)
	}
	return c, nil
}

// load migrates the schema and preloads preloadRows rows in one transaction
// over the wire.
func (s *stack) load(seed int64) error {
	c, err := s.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	registry, err := appserver.UniquenessModels()
	if err != nil {
		return err
	}
	sess := orm.NewSession(registry, c)
	if err := sess.Migrate(); err != nil {
		return fmt.Errorf("migrate: %w", err)
	}
	if s.spec.uniqueIndex {
		if err := sess.AddUniqueIndex(model, "key"); err != nil {
			return fmt.Errorf("unique index: %w", err)
		}
	}
	ins, err := c.Prepare("INSERT INTO " + table + " (key, value, created_at, updated_at) VALUES (?, ?, ?, ?)")
	if err != nil {
		return fmt.Errorf("prepare preload: %w", err)
	}
	if _, err := c.Exec("BEGIN"); err != nil {
		return err
	}
	now := storage.Time(time.Unix(1_400_000_000, 0).UTC())
	for i := 0; i < preloadRows; i++ {
		if _, err := ins.Exec(storage.Str(preloadKey(i)), storage.Str(preloadValue(seed, i)), now, now); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	if _, err := c.Exec("COMMIT"); err != nil {
		return fmt.Errorf("preload commit: %w", err)
	}
	return ins.Close()
}

// close stops the front end, the pool, the wire server and the store, in
// that order, and waits for the wire server's accept loop to return.
func (s *stack) close() error {
	if s.app != nil {
		s.app.Close()
	}
	if s.pool != nil {
		s.pool.Close()
	}
	if s.wsrv != nil {
		s.wsrv.Close()
		<-s.served
	}
	return s.store.Close()
}

// walSize is the size of the durable store's write-ahead log, 0 in memory.
func (s *stack) walSize() int64 {
	if s.dataDir == "" {
		return 0
	}
	fi, err := os.Stat(filepath.Join(s.dataDir, "wal.log"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// tableState reads the table's row count, surplus rows of duplicated keys,
// and every key, through an embedded connection on the store.
func tableState(store *storage.Database) (rows, dups int64, keys map[string]bool, err error) {
	c := db.Wrap(store).Connect()
	defer c.Close()
	res, err := c.Exec("SELECT key FROM " + table)
	if err != nil {
		return 0, 0, nil, err
	}
	keys = make(map[string]bool, len(res.Rows))
	for _, row := range res.Rows {
		if keys[row[0].S] {
			dups++
		}
		keys[row[0].S] = true
	}
	return int64(len(res.Rows)), dups, keys, nil
}
