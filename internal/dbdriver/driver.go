// Package dbdriver is the JDBC-like access layer between the benchmark
// framework and a target DBMS. OLTP-Bench drives every system through the
// same connection/prepared-statement surface; here the targets are the
// embedded engine's personalities, each configured to behave like a
// different class of DBMS (coarse-lock, row-lock, MVCC).
package dbdriver

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"benchpress/internal/sqldb"
	"benchpress/internal/sqldb/exec"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/sqlval"
	"benchpress/internal/wal"
)

// Personality describes one target DBMS configuration.
type Personality struct {
	// Name is the registry key (e.g. "gomvcc").
	Name string
	// Description is shown in tooling output.
	Description string
	// Dialect names the SQL dialect used for statement resolution.
	Dialect string
	// Mode selects the concurrency-control engine.
	Mode txn.Mode
	// WALPolicy and GroupCommitInterval emulate the commit durability cost.
	WALPolicy           wal.SyncPolicy
	GroupCommitInterval time.Duration
	// CommitDelay adds fixed per-commit latency.
	CommitDelay time.Duration
	// VacuumInterval paces the engine's online background vacuum, which
	// reclaims the rows commits updated or deleted (zero disables it; the
	// backlog of touched rows then waits for an explicit Engine.Vacuum).
	VacuumInterval time.Duration
	// DataDir, when non-empty, makes the instance disk-resident: committed
	// rows live in a slotted-page heap behind a buffer pool with ARIES-style
	// recovery (sqldb.OpenDisk). Empty keeps the all-RAM fast path.
	DataDir string
	// BufferPoolPages caps the buffer pool's 4 KiB frames in disk mode
	// (zero uses the engine default).
	BufferPoolPages int
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Personality{}
)

// Register installs a personality. Built-ins are registered at init; tests
// and experiments may add more.
func Register(p Personality) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[strings.ToLower(p.Name)] = p
}

// Lookup returns a registered personality.
func Lookup(name string) (Personality, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	p, ok := registry[strings.ToLower(name)]
	if !ok {
		return Personality{}, fmt.Errorf("dbdriver: unknown DBMS personality %q (known: %s)",
			name, strings.Join(names(), ", "))
	}
	return p, nil
}

// Names lists registered personalities, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return names()
}

func names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	// The three built-in targets. Their distinct concurrency control and
	// commit-latency profiles reproduce the demo's observation that
	// different DBMSs respond differently to the same dynamic load.
	Register(Personality{
		Name:        "goserial",
		Description: "coarse-grained engine: one global database lock (Derby-like level)",
		Dialect:     "derby",
		Mode:        txn.Serial,
		WALPolicy:   wal.SyncGroup, GroupCommitInterval: time.Millisecond,
		VacuumInterval: 5 * time.Millisecond,
	})
	Register(Personality{
		Name:        "golock",
		Description: "row-level strict 2PL with wait-die (MySQL/InnoDB-like level)",
		Dialect:     "mysql",
		Mode:        txn.Locking,
		WALPolicy:   wal.SyncGroup, GroupCommitInterval: 500 * time.Microsecond,
		VacuumInterval: 5 * time.Millisecond,
	})
	Register(Personality{
		Name:        "gomvcc",
		Description: "snapshot-isolation MVCC, first-updater-wins (PostgreSQL-like level)",
		Dialect:     "postgres",
		Mode:        txn.MVCC,
		WALPolicy:   wal.SyncGroup, GroupCommitInterval: 200 * time.Microsecond,
		VacuumInterval: 5 * time.Millisecond,
	})
}

// SessionBackend is the minimal session surface a Conn drives when the
// engine lives in another process: statement execution plus transaction
// control. benchpress/internal/cluster implements it over the binary engine
// wire; the embedded engine keeps its direct *sqldb.Session path and never
// pays the indirection.
type SessionBackend interface {
	// Exec executes one statement (autocommitted outside a transaction).
	Exec(sql string, args []any) (*exec.Result, error)
	// Query executes one statement expected to return rows.
	Query(sql string, args []any) (*exec.Result, error)
	// Begin starts an explicit transaction, read-only when asked.
	Begin(readonly bool) error
	// Commit commits the open transaction.
	Commit() error
	// Rollback aborts the open transaction.
	Rollback() error
	// InTxn reports whether an explicit transaction is open.
	InTxn() bool
	// Close releases the session.
	Close() error
}

// Dialer opens sessions on a remote engine process.
type Dialer interface {
	// Dial opens one new session.
	Dial() (SessionBackend, error)
	// Personality describes the remote engine (name, dialect).
	Personality() Personality
	// Close releases the dialer's resources.
	Close()
}

// DB is one open database instance.
type DB struct {
	p      Personality
	eng    *sqldb.Engine
	remote Dialer
}

// Open creates a fresh database instance of the named personality.
func Open(name string) (*DB, error) {
	p, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return OpenWith(p)
}

// OpenWith creates a database instance from an explicit personality. A
// personality with a DataDir opens disk-resident, which can fail (device or
// recovery errors); the all-RAM path never does.
func OpenWith(p Personality) (*DB, error) {
	cfg := sqldb.Config{
		Name:                p.Name,
		Mode:                p.Mode,
		WALPolicy:           p.WALPolicy,
		GroupCommitInterval: p.GroupCommitInterval,
		CommitDelay:         p.CommitDelay,
		VacuumInterval:      p.VacuumInterval,
	}
	if p.DataDir == "" {
		return &DB{p: p, eng: sqldb.Open(cfg)}, nil
	}
	cfg.DataDir = p.DataDir
	cfg.BufferPoolPages = p.BufferPoolPages
	eng, err := sqldb.OpenDisk(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{p: p, eng: eng}, nil
}

// Wrap adopts an already-open engine under the DB/Conn surface. The
// crash-torture harness uses it to run the conformance workload against an
// engine it recovered by hand from a surviving disk image; Close closes the
// adopted engine.
func Wrap(p Personality, eng *sqldb.Engine) *DB {
	return &DB{p: p, eng: eng}
}

// OpenRemote wraps a remote engine process behind the DB/Conn surface: every
// Connect dials one session over d. Engine() and TxnManager() return nil for
// remote instances — maintenance and harness hooks only exist in-process.
func OpenRemote(d Dialer) *DB {
	return &DB{p: d.Personality(), remote: d}
}

// Remote reports whether this instance drives an engine in another process.
func (db *DB) Remote() bool { return db.remote != nil }

// Personality returns the instance's configuration.
func (db *DB) Personality() Personality { return db.p }

// Engine exposes the underlying engine for maintenance operations
// (vacuum, truncate-all) and statistics. It is nil for remote instances.
func (db *DB) Engine() *sqldb.Engine { return db.eng }

// TxnManager exposes the engine's transaction manager so test harnesses can
// toggle non-blocking mode and invariant-mutation switches. It is nil for
// remote instances.
func (db *DB) TxnManager() *txn.Manager {
	if db.eng == nil {
		return nil
	}
	return db.eng.TxnManager()
}

// Close releases engine resources.
func (db *DB) Close() {
	if db.remote != nil {
		db.remote.Close()
		return
	}
	db.eng.Close()
}

// Connect opens a new connection. Connections are not safe for concurrent
// use; open one per worker thread, as OLTP-Bench does with JDBC. For remote
// instances a dial failure is deferred: the connection is returned broken
// and every operation reports the dial error, so per-transaction error
// accounting (not a launch-time crash) absorbs an engine that is briefly
// unreachable.
func (db *DB) Connect() *Conn {
	if db.remote != nil {
		sess, err := db.remote.Dial()
		return &Conn{db: db, rem: sess, remErr: err}
	}
	return &Conn{db: db, sess: db.eng.Session()}
}

// Conn is one connection (the JDBC Connection analog). Exactly one of sess
// (embedded) or rem (remote) is set.
type Conn struct {
	db     *DB
	sess   *sqldb.Session
	rem    SessionBackend
	remErr error
	// argObs, when set, receives the SQL and arguments of every Exec/Query
	// issued through this connection (capture mode's parameter sampler).
	// Statements executed through a prepared Stmt handle bypass it. Conn is
	// single-goroutine by contract, so a plain field suffices.
	argObs func(sql string, args []any)
}

// DB returns the owning database.
func (c *Conn) DB() *DB { return c.db }

// SetArgObserver installs (or, with nil, removes) a statement-argument
// observer. The workload manager's capture mode uses it to sample the
// parameter distributions of executed transactions.
func (c *Conn) SetArgObserver(f func(sql string, args []any)) { c.argObs = f }

// remote returns the remote session, surfacing a deferred dial failure.
func (c *Conn) remote() (SessionBackend, error) {
	if c.rem == nil {
		return nil, c.remErr
	}
	return c.rem, nil
}

// Exec executes a statement, autocommitted unless a transaction is open.
func (c *Conn) Exec(sql string, args ...any) (*exec.Result, error) {
	if c.argObs != nil {
		c.argObs(sql, args)
	}
	if c.sess != nil {
		return c.sess.Exec(sql, args...)
	}
	rem, err := c.remote()
	if err != nil {
		return nil, err
	}
	return rem.Exec(sql, args)
}

// Query executes a statement expected to return rows.
func (c *Conn) Query(sql string, args ...any) (*exec.Result, error) {
	if c.argObs != nil {
		c.argObs(sql, args)
	}
	if c.sess != nil {
		return c.sess.Query(sql, args...)
	}
	rem, err := c.remote()
	if err != nil {
		return nil, err
	}
	return rem.Query(sql, args)
}

// QueryRow executes and returns the first row (nil if none).
func (c *Conn) QueryRow(sql string, args ...any) ([]sqlval.Value, error) {
	if c.sess != nil {
		if c.argObs != nil {
			c.argObs(sql, args)
		}
		return c.sess.QueryRow(sql, args...)
	}
	res, err := c.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, nil
	}
	return res.Rows[0], nil
}

// Begin starts an explicit transaction.
func (c *Conn) Begin() error {
	if c.sess != nil {
		return c.sess.Begin()
	}
	rem, err := c.remote()
	if err != nil {
		return err
	}
	return rem.Begin(false)
}

// BeginReadOnly starts an explicit transaction declared read-only.
func (c *Conn) BeginReadOnly() error {
	if c.sess != nil {
		return c.sess.BeginReadOnly()
	}
	rem, err := c.remote()
	if err != nil {
		return err
	}
	return rem.Begin(true)
}

// Commit commits the open transaction.
func (c *Conn) Commit() error {
	if c.sess != nil {
		return c.sess.Commit()
	}
	rem, err := c.remote()
	if err != nil {
		return err
	}
	return rem.Commit()
}

// Rollback aborts the open transaction.
func (c *Conn) Rollback() error {
	if c.sess != nil {
		return c.sess.Rollback()
	}
	rem, err := c.remote()
	if err != nil {
		return err
	}
	return rem.Rollback()
}

// InTxn reports whether an explicit transaction is open.
func (c *Conn) InTxn() bool {
	if c.sess != nil {
		return c.sess.InTxn()
	}
	return c.rem != nil && c.rem.InTxn()
}

// TxnInfo returns identity and outcome metadata for the connection's current
// transaction (or the last finished one). The consistency harness uses it to
// map executed operations onto engine transaction ids and commit timestamps.
// Remote connections report a zero Info — the harness only drives embedded
// engines.
func (c *Conn) TxnInfo() txn.Info {
	if c.sess != nil {
		return c.sess.TxnInfo()
	}
	return txn.Info{}
}

// Prepare compiles a statement for repeated execution on this connection.
// On a remote connection preparation is client-side only: the statement
// re-ships its SQL per execution and the server's statement cache does the
// compile-once work.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	if c.sess == nil {
		if _, err := c.remote(); err != nil {
			return nil, err
		}
		return &Stmt{conn: c, sql: sql}, nil
	}
	st, err := c.sess.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{st: st}, nil
}

// Close aborts any open transaction and releases the connection, returning
// the rollback error if that abort fails so callers can surface an engine
// fault instead of losing it.
func (c *Conn) Close() error {
	if c.sess != nil {
		if c.sess.InTxn() {
			return c.sess.Rollback()
		}
		return nil
	}
	if c.rem != nil {
		return c.rem.Close()
	}
	return nil
}

// Stmt is a prepared statement (the JDBC PreparedStatement analog). For
// remote connections it is a client-side handle that re-ships its SQL.
type Stmt struct {
	st   *sqldb.Stmt
	conn *Conn
	sql  string
}

// Exec runs the prepared statement.
func (s *Stmt) Exec(args ...any) (*exec.Result, error) {
	if s.st == nil && s.conn != nil {
		return s.conn.Exec(s.sql, args...)
	}
	return s.st.Exec(args...)
}

// Query runs the prepared statement, returning rows.
func (s *Stmt) Query(args ...any) (*exec.Result, error) { return s.Exec(args...) }

// Close releases the prepared statement. The engine's statement cache owns
// the compiled plan, so closing only severs the session reference, but
// holders of long-lived statements should still release them
// deterministically; use after Close is a programming error and panics.
func (s *Stmt) Close() { s.st = nil; s.conn = nil }

// IsRetryable reports whether an error is a concurrency abort that the
// caller should retry with a fresh transaction.
func IsRetryable(err error) bool { return txn.IsRetryable(err) }
