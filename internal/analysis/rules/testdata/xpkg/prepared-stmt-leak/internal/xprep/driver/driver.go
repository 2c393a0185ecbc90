// Cross-package fixture, provider side: the prepared-statement surface.
package driver

// Stmt is a prepared statement pinned to a session.
type Stmt struct{}

// Close releases the statement.
func (s *Stmt) Close() error { return nil }

// Exec runs the statement.
func (s *Stmt) Exec() error { return nil }

// Conn prepares statements.
type Conn struct{}

// Prepare compiles q into a reusable statement.
func (c *Conn) Prepare(q string) (*Stmt, error) { return &Stmt{}, nil }

// Release closes s on the caller's behalf (exports a stmt.settles fact).
func Release(s *Stmt) { _ = s.Close() }

// Open hands a still-open statement to its caller (exports a stmt.opens
// fact), so it is not a leak here; the obligation moves to the call site.
func Open(c *Conn) (*Stmt, error) {
	st, err := c.Prepare("select 1")
	return st, err
}
