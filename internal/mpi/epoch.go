package mpi

import (
	"cafmpi/internal/fabric"
	"cafmpi/internal/obs"
	"cafmpi/internal/obs/wallprof"
)

// epoch is the origin-side completion state of one window's access epoch,
// shared by Win and DynWin so the flush scan/blame sequences live in one
// place instead of four near-identical copies.
//
// Two charging modes:
//
//   - Default (paper-faithful): FlushAll and friends scan every rank of the
//     communicator at FlushScanNS apiece — the MPICH-derivative behaviour
//     whose linear growth the paper charts in Figure 4. This path is kept
//     bit-exact with the pre-refactor code. The charge is linear; the host
//     walk is not: it visits only the pending targets and bills the ranks
//     between them in one Advance each.
//
//   - Sparse (fabric.MPICosts.SparseFlush, foMPI-like): the epoch tracks a
//     dirty-peer set updated by every RMA op, and the flush paths walk only
//     |dirty| peers. The set is cleared at epoch boundaries (FlushAll,
//     RflushAll, LockAll) and per peer on targeted Flush.
type epoch struct {
	env  *Env
	comm *Comm

	// Per-target (comm rank) completion tracking: the latest remote-
	// completion timestamp of issued operations, and the set of targets
	// with an unflushed operation. pendingOps counts unflushed operations
	// per target; pendingTotal is their sum, feeding the pending_rma_max
	// gauge.
	pendingT     []int64
	hasPending   fabric.RankBits
	pendingOps   []int64
	pendingTotal int64

	// Scalable-sync mode state. dirty holds the comm ranks this epoch has
	// touched; peerScratch and worldScratch are reusable buffers for the
	// sorted walk (sorted iteration keeps the clock deterministic) and the
	// sanitizer's world-rank fence list.
	sparse       bool
	dirty        fabric.PeerSet
	peerScratch  []int
	worldScratch []int
}

// epInit sizes the epoch for comm and latches the mode from the platform.
func (ep *epoch) epInit(env *Env, comm *Comm) {
	ep.env = env
	ep.comm = comm
	n := comm.Size()
	ep.pendingT = make([]int64, n)
	ep.hasPending = fabric.NewRankBits(n)
	ep.pendingOps = make([]int64, n)
	ep.sparse = env.costs().SparseFlush
	if ep.sparse {
		ep.dirty.Init(n)
	}
}

// notePending records a remote completion timestamp for target and, in
// sparse mode, marks the peer dirty. Every issuing path (Put/Get/
// Accumulate and the atomics) funnels through here, so the dirty set is
// exactly "peers this epoch touched".
func (ep *epoch) notePending(target int, t int64) {
	if t > ep.pendingT[target] {
		ep.pendingT[target] = t
	}
	ep.hasPending.Set(target)
	ep.pendingOps[target]++
	ep.pendingTotal++
	ep.env.sh.Max(obs.CtrPendingRMAMax, ep.pendingTotal)
	ep.touch(target)
}

// touch marks target dirty without an outstanding timestamp — for
// operations like Rget whose completion rides a request rather than a
// flush, but whose happens-before edge a sparse flush must still cover.
// It also drives the on-demand connection model: first contact with a
// peer charges its eager-pool state.
func (ep *epoch) touch(target int) {
	if ep.sparse {
		ep.dirty.Add(target)
	}
	ep.env.connect(ep.comm.ranks[target])
}

// clearPending marks target flushed, releasing its outstanding-op count.
func (ep *epoch) clearPending(target int) {
	ep.hasPending.Clear(target)
	ep.pendingTotal -= ep.pendingOps[target]
	ep.pendingOps[target] = 0
}

// dirtyPeers returns the touched comm ranks in ascending order, reusing
// the epoch's scratch buffer. Sparse mode only.
func (ep *epoch) dirtyPeers() []int {
	ep.peerScratch = ep.dirty.AppendSorted(ep.peerScratch[:0])
	return ep.peerScratch
}

// worldRanks translates comm ranks to world ranks for the sanitizer's
// peer-scoped fence, reusing scratch.
func (ep *epoch) worldRanks(peers ...int) []int {
	ep.worldScratch = ep.worldScratch[:0]
	for _, t := range peers {
		ep.worldScratch = append(ep.worldScratch, ep.comm.ranks[t])
	}
	return ep.worldScratch
}

// flushTarget charges the MPI_WIN_FLUSH sequence for one target: wait out
// its outstanding completion timestamp plus FlushNS if anything is
// pending, otherwise the bookkeeping scan. Shared by Win.Flush,
// DynWin.Flush, and the Unlock paths; callers have already validated the
// epoch.
func (ep *epoch) flushTarget(target int) {
	wt := ep.env.wp.Begin(wallprof.SiteMPIFlush)
	c := ep.env.costs()
	p := ep.env.p
	t0 := p.Now()
	var waited int64
	pending := ep.hasPending.Has(target)
	if pending {
		waited = ep.waitPending(target)
	} else {
		p.Advance(c.FlushScanNS)
	}
	if ep.sparse {
		ep.dirty.Remove(target)
	}
	if sh := ep.env.sh; sh != nil {
		end := p.Now()
		sh.Record(obs.LayerMPI, obs.OpFlush, ep.comm.ranks[target], 0, 0, t0, end)
		sh.Add(obs.CtrFlushCalls, 1)
		e := obs.Edge{Layer: obs.LayerMPI, Op: obs.OpFlush,
			Peer: int32(ep.comm.ranks[target]), Start: t0, End: end}
		if pending {
			e.AddComp(obs.CompFlushWait, waited)
			e.AddComp(obs.CompOverhead, c.FlushNS)
		} else {
			e.AddComp(obs.CompFlushScan, c.FlushScanNS)
		}
		sh.RecordEdge(e)
	}
	// Remote completion defines deferred-get destinations. A targeted flush
	// only orders operations to this peer, so sparse mode fences just it;
	// the default mode keeps the historical full fence.
	if ep.sparse {
		ep.env.san.FenceLocalPeers(ep.worldRanks(target))
	} else {
		ep.env.san.FenceLocal()
	}
	ep.env.wp.End(wallprof.SiteMPIFlush, wt)
}

// waitPending completes target's outstanding operations: wait out its
// completion timestamp, charge FlushNS, and release it. It returns the
// wait.
func (ep *epoch) waitPending(target int) int64 {
	p := ep.env.p
	pre := p.Now()
	p.AdvanceTo(ep.pendingT[target])
	waited := p.Now() - pre
	p.Advance(ep.env.costs().FlushNS)
	ep.clearPending(target)
	return waited
}

// flushAllEpoch charges the MPI_WIN_FLUSH_ALL sequence. Default mode scans
// every rank of the communicator (the §4.1 bottleneck); sparse mode walks
// the dirty set in ascending rank order and clears it — cost proportional
// to what the epoch touched, not to world size.
//
// The default-mode host walk visits only the pending targets, in ascending
// order, charging FlushScanNS for every rank up to and including each one
// before waiting on it, then for the ranks after the last. Advance is
// integer addition that skips non-positive charges, so the clock matches
// a per-rank walk exactly while host cost is O(pending + Size/64).
func (ep *epoch) flushAllEpoch() {
	wt := ep.env.wp.Begin(wallprof.SiteMPIFlush)
	c := ep.env.costs()
	p := ep.env.p
	t0 := p.Now()
	var waited int64
	flushed := 0
	scanned := ep.comm.Size()
	var peers []int
	if ep.sparse {
		peers = ep.dirtyPeers()
		scanned = len(peers)
		for _, t := range peers {
			p.Advance(c.FlushScanNS)
			if ep.hasPending.Has(t) {
				waited += ep.waitPending(t)
				flushed++
			}
		}
		ep.dirty.Clear()
	} else {
		prev := -1
		for t := ep.hasPending.Next(0); t >= 0; t = ep.hasPending.Next(t + 1) {
			p.Advance(c.FlushScanNS * int64(t-prev))
			waited += ep.waitPending(t)
			flushed++
			prev = t
		}
		p.Advance(c.FlushScanNS * int64(scanned-1-prev))
	}
	if sh := ep.env.sh; sh != nil {
		end := p.Now()
		sh.Record(obs.LayerMPI, obs.OpFlushAll, -1, 0, scanned, t0, end)
		sh.Add(obs.CtrFlushAllCalls, 1)
		sh.Add(obs.CtrFlushAllScannedOps, int64(scanned))
		// The scan blame separates bookkeeping from genuine completion
		// waits, so the per-rank (or per-dirty-peer) walk is visible even
		// when nothing was pending. A sparse flush of an untouched epoch is
		// free; skip the zero-length edge.
		if !ep.sparse || end > t0 {
			e := obs.Edge{Layer: obs.LayerMPI, Op: obs.OpFlushAll,
				Peer: -1, Start: t0, End: end}
			e.AddComp(obs.CompFlushScan, c.FlushScanNS*int64(scanned))
			e.AddComp(obs.CompFlushWait, waited)
			e.AddComp(obs.CompOverhead, c.FlushNS*int64(flushed))
			sh.RecordEdge(e)
		}
	}
	if ep.sparse {
		// Happens-before edges reach the flushed (dirty) peers only: a
		// deferred get from an untouched peer stays unordered, so the
		// sanitizer still catches reads racing with it.
		ep.env.san.FenceLocalPeers(ep.worldRanks(peers...))
	} else {
		ep.env.san.FenceLocal()
	}
	ep.env.wp.End(wallprof.SiteMPIFlush, wt)
}

// rflushAllEpoch charges the request-generating flush-all (the paper's §5
// MPI_WIN_RFLUSH proposal) and returns the completion timestamp for the
// request. Only targets with outstanding operations are visited in either
// mode (default mode walks the pending set directly); sparse mode
// additionally clears the dirty set, closing the epoch window the request
// covers.
func (ep *epoch) rflushAllEpoch() int64 {
	wt := ep.env.wp.Begin(wallprof.SiteMPIFlush)
	c := ep.env.costs()
	p := ep.env.p
	done := p.Now()
	t0 := p.Now()
	any := false
	scanned := 0
	visit := func(t int) {
		if !ep.hasPending.Has(t) {
			return
		}
		any = true
		scanned++
		p.Advance(c.FlushScanNS)
		if tt := ep.pendingT[t] + c.FlushNS; tt > done {
			done = tt
		}
		ep.clearPending(t)
	}
	if ep.sparse {
		for _, t := range ep.dirtyPeers() {
			visit(t)
		}
		ep.dirty.Clear()
	} else {
		for t := ep.hasPending.Next(0); t >= 0; t = ep.hasPending.Next(t + 1) {
			visit(t)
		}
	}
	if any {
		if lat := p.Now() + ep.env.net.Params().LatencyNS; lat > done {
			done = lat
		}
	}
	if sh := ep.env.sh; sh != nil {
		end := p.Now()
		sh.Record(obs.LayerMPI, obs.OpFlushAll, -1, 0, scanned, t0, end)
		sh.Add(obs.CtrRflushAllCalls, 1)
		sh.Add(obs.CtrFlushAllScannedOps, int64(scanned))
		if end > t0 {
			e := obs.Edge{Layer: obs.LayerMPI, Op: obs.OpFlushAll,
				Peer: -1, Start: t0, End: end}
			e.AddComp(obs.CompFlushScan, c.FlushScanNS*int64(scanned))
			sh.RecordEdge(e)
		}
	}
	ep.env.wp.End(wallprof.SiteMPIFlush, wt)
	return done
}

// lockAllEpoch charges epoch-open cost. MPICH derivatives lazily acquire
// every rank (FlushScanNS × Size even under MPI_MODE_NOCHECK); sparse mode
// defers per-peer acquisition to first use, so opening is O(1). Also the
// dirty set's epoch-boundary reset.
func (ep *epoch) lockAllEpoch() {
	wt := ep.env.wp.Begin(wallprof.SiteMPIFlush)
	c := ep.env.costs()
	p := ep.env.p
	t0 := p.Now()
	scanned := ep.comm.Size()
	if ep.sparse {
		scanned = 1
		ep.dirty.Clear()
	}
	p.Advance(c.FlushScanNS * int64(scanned))
	if sh := ep.env.sh; sh != nil {
		end := p.Now()
		sh.Record(obs.LayerMPI, obs.OpLockAll, -1, 0, scanned, t0, end)
		sh.Add(obs.CtrLockAllCalls, 1)
		e := obs.Edge{Layer: obs.LayerMPI, Op: obs.OpLockAll,
			Peer: -1, Start: t0, End: end}
		e.AddComp(obs.CompFlushScan, c.FlushScanNS*int64(scanned))
		sh.RecordEdge(e)
	}
	ep.env.wp.End(wallprof.SiteMPIFlush, wt)
}

// dirtyCount exposes the dirty-set size for tests; -1 in default mode.
func (ep *epoch) dirtyCount() int {
	if !ep.sparse {
		return -1
	}
	return ep.dirty.Len()
}
