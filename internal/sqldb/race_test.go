//go:build race

package sqldb

// The race detector makes sync.Pool drop a share of what is put back, so
// pooled executor state is rebuilt at random and byte budgets do not hold.
func init() { raceEnabled = true }
