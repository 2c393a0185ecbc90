package stats

// Delta is a batch of outcomes recorded by one collector, in the form another
// collector folds in with Merge: the movement of the first collector's
// cumulative counters between two reads. The cluster coordinator's merged
// feed is a Collector built this way — each worker ships the Delta of its own
// collector since its last flush.
type Delta struct {
	Committed, Aborted, Errors, Retries int64
	// Types holds the per-type histogram movement; a type that did not move
	// may be left out.
	Types []TypeDelta
}

// TypeDelta is one transaction type's share of a Delta: the movement of its
// service-time (Lat) and response-time (Resp) histograms. Each carries its
// bucket counts and sum as deltas and its maximum as the cumulative value,
// because a maximum cannot be differenced.
type TypeDelta struct {
	Index     int
	Lat, Resp HistSnapshot
}

// Since returns the observations hs holds beyond prev, an earlier snapshot of
// the same monotonic histogram, and their count. Bucket counts and the sum are
// differenced; the maximum stays hs's own.
func (hs HistSnapshot) Since(prev HistSnapshot) (HistSnapshot, int64) {
	d := HistSnapshot{Counts: make([]int64, len(hs.Counts)), SumUS: hs.SumUS - prev.SumUS, MaxUS: hs.MaxUS}
	var n int64
	for b, c := range hs.Counts {
		if b < len(prev.Counts) {
			c -= prev.Counts[b]
		}
		d.Counts[b] = c
		n += c
	}
	return d, n
}

// Cumulative reads the collector's whole history as a Delta with one entry
// per type. Two reads differenced with Since give what was recorded between
// them.
func (c *Collector) Cumulative() Delta {
	d := Delta{
		Committed: c.Committed(),
		Aborted:   c.Aborted(),
		Errors:    c.Errors(),
		Retries:   c.Retries(),
		Types:     make([]TypeDelta, len(c.types)),
	}
	for i := range d.Types {
		d.Types[i] = TypeDelta{Index: i, Lat: c.typeHist(i, false), Resp: c.typeHist(i, true)}
	}
	return d
}

// Since returns what d holds beyond prev, an earlier Cumulative read of the
// same collector (the zero Delta before the first). Types that did not move
// are left out.
func (d Delta) Since(prev Delta) Delta {
	out := Delta{
		Committed: d.Committed - prev.Committed,
		Aborted:   d.Aborted - prev.Aborted,
		Errors:    d.Errors - prev.Errors,
		Retries:   d.Retries - prev.Retries,
	}
	for i, t := range d.Types {
		var p TypeDelta
		if i < len(prev.Types) {
			p = prev.Types[i]
		}
		lat, n := t.Lat.Since(p.Lat)
		resp, nr := t.Resp.Since(p.Resp)
		if n != 0 || nr != 0 {
			out.Types = append(out.Types, TypeDelta{Index: t.Index, Lat: lat, Resp: resp})
		}
	}
	return out
}

// Merge folds d into the collector as if its outcomes had been recorded here
// now: they land in the live window and in the cumulative counters and
// histograms, so windows, Snapshot and every accessor treat merged and
// locally recorded outcomes alike. Entries whose type index is outside the
// collector's type list are dropped.
func (c *Collector) Merge(d Delta) {
	idx := c.windowIndex(c.now())
	c.mu.Lock()
	c.advance(idx)
	c.mu.Unlock()
	s := &c.shards[0]
	s.committed.Add(d.Committed)
	s.aborted.Add(d.Aborted)
	s.errors.Add(d.Errors)
	s.retries.Add(d.Retries)
	for _, t := range d.Types {
		if t.Index < 0 || t.Index >= len(c.types) {
			continue
		}
		cell := &s.lat[t.Index]
		s.perType[t.Index].Add(cell.merge(t.Lat))
		s.sumLatUS.Add(t.Lat.SumUS)
		cell.resp.merge(t.Resp)
	}
}

// merge adds a histogram delta and returns the number of observations it
// held.
func (l *latHist) merge(hs HistSnapshot) int64 {
	var n int64
	for b, c := range hs.Counts[:min(len(hs.Counts), len(l.counts))] {
		if c != 0 {
			l.counts[b].Add(c)
			n += c
		}
	}
	l.sum.Add(hs.SumUS)
	for {
		cur := l.max.Load()
		if hs.MaxUS <= cur || l.max.CompareAndSwap(cur, hs.MaxUS) {
			return n
		}
	}
}
