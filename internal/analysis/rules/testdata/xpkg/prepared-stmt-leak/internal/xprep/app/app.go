// Cross-package fixture, consumer side: the Prepare call resolves through
// the driver package's types.
package app

import "benchpress/internal/xprep/driver"

func leak(c *driver.Conn) error {
	st, err := c.Prepare("select 1") // want "never closed"
	if err != nil {
		return err
	}
	return st.Exec()
}

func closed(c *driver.Conn) error {
	st, err := c.Prepare("select 1")
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }()
	return st.Exec()
}

// closedByHelper settles the statement through a helper in another package.
func closedByHelper(c *driver.Conn) error {
	st, err := c.Prepare("select 1")
	if err != nil {
		return err
	}
	defer driver.Release(st)
	return st.Exec()
}

// leakViaHelper gets an open statement from a helper and never closes it.
func leakViaHelper(c *driver.Conn) error {
	st, err := driver.Open(c) // want "never closed"
	if err != nil {
		return err
	}
	return st.Exec()
}
