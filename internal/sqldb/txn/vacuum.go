package txn

import (
	"sort"

	"benchpress/internal/sqldb/storage"
)

// reclaim is one reclaim-backlog entry: a row that a committed update or
// delete left reclaimable work in (a superseded chain tail, or the whole row
// when it was deleted), and the commit timestamp from which a pass at a
// horizon at or above it can do that work.
type reclaim struct {
	table *storage.Table
	cand  storage.Candidate
	ts    uint64
}

// maxIdleBacklog bounds the capacity the backlog keeps once drained. A
// backlog that grew past it (vacuum off, or a long-pinned horizon) is
// reallocated at its remaining size, so a burst does not pin memory.
const maxIdleBacklog = 1 << 14

// Vacuum drains the reclaim backlog up to the current low-watermark: each
// row a committed update or delete touched at or below Horizon() is
// classified by storage.Table.Reclaim — dead rows unlinked and retired to
// limbo, live rows' chain tails pruned — and entries above the horizon wait
// for a later pass. It also recycles the limbo of every table whose limbo
// the horizon has passed, whether or not that table was written since. It
// returns the number of rows retired. Passes serialize with each other;
// commits only contend with a pass for two short commitMu holds.
//
// Without a background vacuum (sqldb.Config.VacuumInterval zero) nothing
// drains the backlog, so it grows — one small entry per updated or deleted
// row — until Vacuum runs, just as the version chains it points at do.
func (m *Manager) Vacuum() int {
	m.vacMu.Lock()
	defer m.vacMu.Unlock()
	horizon, now := m.Horizon(), m.Clock()

	// Reap first: a batch this pass retires is stamped now >= horizon and
	// waits for a later pass anyway.
	keep := m.limboTables[:0]
	for _, t := range m.limboTables {
		if t.ReapLimbo(horizon) > 0 {
			keep = append(keep, t)
		}
	}
	clear(m.limboTables[len(keep):])
	m.limboTables = keep

	// The backlog is in commit-timestamp order, so the drainable entries
	// are a prefix. Commits only append, beyond the snapshot's length, so
	// the prefix can be read outside commitMu.
	m.commitMu.Lock()
	b, head := m.backlog, m.backlogHead
	m.commitMu.Unlock()
	pending := b[head:]
	n := sort.Search(len(pending), func(i int) bool { return pending[i].ts > horizon })
	drain := pending[:n]

	// One Reclaim per table. The drain is only read here: a commit whose
	// append grows the backlog copies these entries concurrently.
	tables := m.vacTables[:0]
	for i := range drain {
		if !containsTable(tables, drain[i].table) {
			tables = append(tables, drain[i].table)
		}
	}
	var st storage.VacuumStats
	for _, t := range tables {
		cands := m.cands[:0]
		for i := range drain {
			if drain[i].table == t {
				cands = append(cands, drain[i].cand)
			}
		}
		ts := t.Reclaim(cands, horizon, now)
		clear(cands)
		m.cands = cands[:0]
		st.Add(ts)
		if ts.Reclaimed > 0 && !containsTable(m.limboTables, t) {
			m.limboTables = append(m.limboTables, t)
		}
	}
	clear(tables)
	m.vacTables = tables[:0]

	m.commitMu.Lock()
	m.advanceBacklog(n)
	m.commitMu.Unlock()

	m.vacVisited.Add(uint64(st.Visited))
	m.vacReclaimed.Add(uint64(st.Reclaimed))
	m.vacPruned.Add(uint64(st.Pruned))
	return st.Reclaimed
}

// advanceBacklog retires the n oldest pending entries, dropping their row
// pointers. The live part is moved to the front once the retired part is at
// least as long, so compaction costs O(1) per entry. Callers hold commitMu.
func (m *Manager) advanceBacklog(n int) {
	b := m.backlog
	clear(b[m.backlogHead : m.backlogHead+n])
	m.backlogHead += n
	live := len(b) - m.backlogHead
	if m.backlogHead < live {
		return
	}
	if cap(b) > maxIdleBacklog && live < cap(b)/4 {
		m.backlog = append(make([]reclaim, 0, 2*live), b[m.backlogHead:]...)
	} else {
		k := copy(b, b[m.backlogHead:])
		clear(b[k:])
		m.backlog = b[:k]
	}
	m.backlogHead = 0
}

func containsTable(ts []*storage.Table, t *storage.Table) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// VacuumVisited is the number of rows vacuum passes have classified.
func (m *Manager) VacuumVisited() uint64 { return m.vacVisited.Load() }

// VacuumReclaimed is the number of dead rows vacuum passes have retired.
func (m *Manager) VacuumReclaimed() uint64 { return m.vacReclaimed.Load() }

// VacuumPruned is the number of chain tails vacuum passes have cut.
func (m *Manager) VacuumPruned() uint64 { return m.vacPruned.Load() }

// VacuumBacklog is the number of committed writes awaiting a vacuum pass.
func (m *Manager) VacuumBacklog() int {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	return len(m.backlog) - m.backlogHead
}
