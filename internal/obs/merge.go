package obs

// This file implements campaign-level snapshot aggregation: the SWIFI
// engine gives every trial its own private Recorder and folds the
// per-trial snapshots into one campaign snapshot in trial-index order,
// so a parallel campaign's aggregate is byte-identical to a sequential
// one (see DESIGN.md §9).

// Merge folds o into s: counters and event-kind totals are summed,
// per-mechanism cells (campaign-wide and per-component) are added
// bucket-wise, component tables are unioned by ID, and o's events are
// appended after s's — callers merge snapshots in trial order, so the
// combined stream is ordered by (trial, per-trial sequence). The
// appended events are renumbered with a contiguous global sequence
// continuing from the receiver's last sequence number (an empty
// receiver starts at 1), which makes Merge associative: merging two
// halves of a campaign equals merging all of its trials directly.
//
// Renumbering only the appended suffix (instead of the whole stream)
// keeps each merge O(|o|) and — because survivors of a Trim keep their
// global sequence numbers — makes it legal to Trim the receiver between
// merges: a rolling merge that trims after every fold produces the same
// events, with the same sequence numbers, as one batch merge followed
// by a single final Trim. The streaming SWIFI campaign engine depends
// on exactly this equivalence (DESIGN.md §14).
//
// Merge updates s's own tables in place where it can and never aliases
// o's storage; o remains valid and unchanged. The zero Snapshot is a
// valid receiver (the empty merge base).
func (s *Snapshot) Merge(o Snapshot) {
	s.mergeAggregates(o)
	next := uint64(0)
	if n := len(s.Events); n > 0 {
		next = s.Events[n-1].Seq
	}
	base := len(s.Events)
	s.Events = append(s.Events, o.Events...)
	for i := base; i < len(s.Events); i++ {
		next++
		s.Events[i].Seq = next
	}
	s.DroppedEvents = s.TotalEvents - uint64(len(s.Events))
}

// Splice folds o into s when o is itself a rolling-merged stream — a
// campaign shard's final snapshot rather than one trial's. Aggregates
// merge exactly as in Merge, but o's events keep their own (contiguous,
// possibly trimmed-at-the-front) numbering, shifted after s's last
// sequence number. That is what makes the shard fold byte-identical to
// the single-process rolling merge: a shard that trimmed k of its own
// events leaves the same sequence gap the uninterrupted run would have
// left at that point, where Merge's contiguous renumbering would have
// closed it. s's last kept sequence equals the number of events ever
// appended to its stream (Trim preserves the tail), so the shift lands
// o's events at exactly their uninterrupted global positions.
func (s *Snapshot) Splice(o Snapshot) {
	s.mergeAggregates(o)
	shift := uint64(0)
	if n := len(s.Events); n > 0 {
		shift = s.Events[n-1].Seq
	}
	base := len(s.Events)
	s.Events = append(s.Events, o.Events...)
	for i := base; i < len(s.Events); i++ {
		s.Events[i].Seq += shift
	}
	s.DroppedEvents = s.TotalEvents - uint64(len(s.Events))
}

// mergeAggregates folds every non-event field of o into s: the shared
// half of Merge and Splice.
func (s *Snapshot) mergeAggregates(o Snapshot) {
	if s.BucketBounds == nil {
		s.BucketBounds = bucketBounds()
	}
	s.TotalEvents += o.TotalEvents
	if len(o.Kinds) > 0 && s.Kinds == nil {
		s.Kinds = make(map[string]uint64, len(o.Kinds))
	}
	for k, n := range o.Kinds {
		s.Kinds[k] += n
	}
	s.FaultKinds = mergeCountMap(s.FaultKinds, o.FaultKinds)
	s.FaultSeverities = mergeCountMap(s.FaultSeverities, o.FaultSeverities)
	s.Mechanisms = mergeMechanisms(s.Mechanisms, o.Mechanisms, true)
	s.Cores = mergeCores(s.Cores, o.Cores)
	if o.CrossCoreLatency != nil {
		if s.CrossCoreLatency == nil {
			lat := *o.CrossCoreLatency
			s.CrossCoreLatency = &lat
		} else {
			s.CrossCoreLatency.merge(*o.CrossCoreLatency)
		}
	}
	s.Storage = mergeStorage(s.Storage, o.Storage)
	s.Components = mergeComponents(s.Components, o.Components)
}

// Trim bounds the merged event stream to the most recent capacity
// events, mirroring the ring-buffer semantics of a single Recorder:
// older events are dropped (counted in DroppedEvents) and the survivors
// keep their global sequence numbers. capacity <= 0 trims nothing.
//
// Trim reslices rather than copies: the survivors stay where they are,
// and the next Merge that outgrows the slice moves only them into a new
// array. A rolling merge that trims after every fold therefore copies
// the capacity-sized window once per many folds, not once per fold, and
// the dropped prefix is garbage from that move on.
func (s *Snapshot) Trim(capacity int) {
	if capacity <= 0 || len(s.Events) <= capacity {
		return
	}
	s.Events = s.Events[len(s.Events)-capacity:]
	s.DroppedEvents = s.TotalEvents - uint64(len(s.Events))
}

// mergeCountMap sums b's counters into a's, allocating a only when b has
// entries (nil in, nil out for the all-empty case, preserving the
// omitempty JSON shape).
func mergeCountMap(a, b map[string]uint64) map[string]uint64 {
	if len(b) == 0 {
		return a
	}
	if a == nil {
		a = make(map[string]uint64, len(b))
	}
	for k, n := range b {
		a[k] += n
	}
	return a
}

// mechSlot maps a paper mechanism name to its Mechanism; ok is false for
// names outside the R0…U0 taxonomy, which a fold drops.
func mechSlot(name string) (Mechanism, bool) {
	for m := MechR0; m <= MechU0; m++ {
		if m.String() == name {
			return m, true
		}
	}
	return MechNone, false
}

// mergeMechanisms adds b's cells into a's through a fixed per-mechanism
// array, matching by mechanism name. With full set, every mechanism of
// the paper taxonomy is present in the result (the Snapshot invariant);
// otherwise only non-zero cells survive (the per-component
// representation). The result reuses a's storage when it fits and never
// aliases b.
func mergeMechanisms(a, b []MechanismSnapshot, full bool) []MechanismSnapshot {
	var cells [NumMechanisms]MechStat
	for _, c := range a {
		if m, ok := mechSlot(c.Mechanism); ok {
			cells[m] = c.MechStat
		}
	}
	for _, c := range b {
		if m, ok := mechSlot(c.Mechanism); ok {
			cells[m].merge(c.MechStat)
		}
	}
	n := 0
	for m := MechR0; m <= MechU0; m++ {
		if full || cells[m].Count > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := a[:0]
	if cap(out) < n {
		out = make([]MechanismSnapshot, 0, n)
	}
	for m := MechR0; m <= MechU0; m++ {
		if full || cells[m].Count > 0 {
			out = append(out, MechanismSnapshot{Mechanism: m.String(), MechStat: cells[m]})
		}
	}
	return out
}

// mergeByKey merge-joins two tables sorted by strictly increasing key
// (the Snapshot invariant for components, cores and replicas). A row of
// b whose key a already holds is folded into a's row by add; any other
// row is inserted in key order as clone(row), so the result never
// aliases b. When b brings no new key, a is updated in place.
func mergeByKey[T any](a, b []T, key func(*T) int64, add func(dst, src *T), clone func(T) T) []T {
	fresh := 0
	for i, j := 0, 0; j < len(b); {
		switch {
		case i < len(a) && key(&a[i]) < key(&b[j]):
			i++
		case i < len(a) && key(&a[i]) == key(&b[j]):
			i++
			j++
		default:
			fresh++
			j++
		}
	}
	if fresh == 0 {
		for i, j := 0, 0; j < len(b); i++ {
			if key(&a[i]) == key(&b[j]) {
				add(&a[i], &b[j])
				j++
			}
		}
		return a
	}
	out := make([]T, 0, len(a)+fresh)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && key(&a[i]) < key(&b[j])):
			out = append(out, a[i])
			i++
		case i < len(a) && key(&a[i]) == key(&b[j]):
			add(&a[i], &b[j])
			out = append(out, a[i])
			i++
			j++
		default:
			out = append(out, clone(b[j]))
			j++
		}
	}
	return out
}

// mergeCores unions two per-core tables by core number, summing the
// migration counters; the result is sorted by core (the Snapshot
// invariant). Nil in, nil out when both sides are empty.
func mergeCores(a, b []CoreSnapshot) []CoreSnapshot {
	return mergeByKey(a, b,
		func(c *CoreSnapshot) int64 { return int64(c.Core) },
		func(dst, src *CoreSnapshot) {
			dst.MigrationsIn += src.MigrationsIn
			dst.MigrationsOut += src.MigrationsOut
			dst.CrossCoreInvocations += src.CrossCoreInvocations
		},
		func(c CoreSnapshot) CoreSnapshot { return c })
}

// mergeStorage folds b's storage-replication aggregates into a's:
// per-replica counters are unioned by replica number and summed, the
// quorum counters added, and the rebuild histograms merged bucket-wise.
// Nil in, nil out when both sides are empty; the result never aliases b.
func mergeStorage(a, b *StorageSnapshot) *StorageSnapshot {
	if b == nil {
		return a
	}
	if a == nil {
		a = &StorageSnapshot{}
	}
	a.Replicas = mergeByKey(a.Replicas, b.Replicas,
		func(rs *StorageReplicaSnapshot) int64 { return int64(rs.Replica) },
		func(dst, src *StorageReplicaSnapshot) {
			dst.Writes += src.Writes
			dst.Checkpoints += src.Checkpoints
			dst.Rebuilds += src.Rebuilds
			dst.Repairs += src.Repairs
		},
		func(rs StorageReplicaSnapshot) StorageReplicaSnapshot { return rs })
	a.QuorumRepairs += b.QuorumRepairs
	a.QuorumLost += b.QuorumLost
	if b.RebuildLatency != nil {
		if a.RebuildLatency == nil {
			lat := *b.RebuildLatency
			a.RebuildLatency = &lat
		} else {
			a.RebuildLatency.merge(*b.RebuildLatency)
		}
	}
	return a
}

// mergeComponents unions two per-component tables by component ID,
// summing counters and adding mechanism cells; the result is sorted by
// ID (the Snapshot invariant).
func mergeComponents(a, b []ComponentSnapshot) []ComponentSnapshot {
	return mergeByKey(a, b,
		func(c *ComponentSnapshot) int64 { return int64(c.ID) },
		func(dst, src *ComponentSnapshot) {
			if dst.Name == "" {
				dst.Name = src.Name
			}
			dst.Invokes += src.Invokes
			dst.Upcalls += src.Upcalls
			dst.Faults += src.Faults
			dst.Reboots += src.Reboots
			dst.Degraded += src.Degraded
			dst.Mechanisms = mergeMechanisms(dst.Mechanisms, src.Mechanisms, false)
			dst.FaultKinds = mergeCountMap(dst.FaultKinds, src.FaultKinds)
		},
		func(c ComponentSnapshot) ComponentSnapshot {
			// Copy the cell list and counter map so the merged snapshot
			// never aliases b.
			c.Mechanisms = append([]MechanismSnapshot(nil), c.Mechanisms...)
			c.FaultKinds = mergeCountMap(nil, c.FaultKinds)
			return c
		})
}
