package mpi

import (
	"fmt"
	"math/rand"
	"testing"

	"cafmpi/internal/fabric"
	"cafmpi/internal/obs"
	"cafmpi/internal/sim"
)

// refFlushAll is the per-rank MPI_WIN_FLUSH_ALL walk the pending-set walk
// replaced: one FlushScanNS charge per communicator rank, and a wait plus
// FlushNS at each pending one. It runs on its own clock.
func refFlushAll(p *sim.Proc, c fabric.MPICosts, pending []bool, pendingT []int64) (waited int64, flushed int) {
	for t := range pending {
		p.Advance(c.FlushScanNS)
		if pending[t] {
			pre := p.Now()
			p.AdvanceTo(pendingT[t])
			waited += p.Now() - pre
			p.Advance(c.FlushNS)
			flushed++
		}
	}
	return waited, flushed
}

// refRflushAll is the per-rank request-generating walk: only pending ranks
// are charged, and the request completes at the latest of their completion
// timestamps plus FlushNS and one network latency after the scan.
func refRflushAll(p *sim.Proc, c fabric.MPICosts, latency int64, pending []bool, pendingT []int64) (done int64, scanned int) {
	done = p.Now()
	for t := range pending {
		if !pending[t] {
			continue
		}
		scanned++
		p.Advance(c.FlushScanNS)
		if tt := pendingT[t] + c.FlushNS; tt > done {
			done = tt
		}
	}
	if scanned > 0 {
		if lat := p.Now() + latency; lat > done {
			done = lat
		}
	}
	return done, scanned
}

// edgeComp returns component c's span on e.
func edgeComp(e obs.Edge, c obs.Component) int64 {
	for i := 0; i < int(e.NComps); i++ {
		if e.Comps[i].C == c {
			return e.Comps[i].NS
		}
	}
	return 0
}

// TestFlatFlushAllMatchesPerRankWalk: flat-mode FlushAll and RflushAll walk
// only the pending targets, yet must reproduce the per-rank walk exactly —
// end clock, request completion time, the flush-all scanned-ops counter
// (the paper's §4.1 pathology count, still Size per FlushAll) and the
// critical-path edge's scan, wait and overhead components. Pending sets
// are random plus the empty set, the full set, and the word-boundary ranks
// 0, 63, 64, 65 and P-1; completion timestamps fall both behind and ahead
// of the clock; FlushScanNS = 0 covers the skipped-charge case.
func TestFlatFlushAllMatchesPerRankWalk(t *testing.T) {
	const trials = 120
	for _, np := range []int{64, 130} {
		for _, scan := range []int64{10, 0} {
			t.Run(fmt.Sprintf("np=%d/scan=%d", np, scan), func(t *testing.T) {
				params := tp()
				params.MPI.FlushScanNS = scan
				w := sim.NewWorld(np)
				err := w.Run(func(p *sim.Proc) error {
					obs.Enable(p.World(), 0)
					e := Init(p, fabric.AttachNet(p.World(), params))
					c := e.CommWorld()
					win, err := WinAllocate(c, 8)
					if err != nil {
						return err
					}
					if err := win.LockAll(); err != nil {
						return err
					}
					// Rank 0 walks; the rest wait at the barrier, which
					// rank 0 must reach even when a check fails.
					var werr error
					if p.ID() == 0 {
						werr = checkFlushWalks(p, e, win, np, trials)
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					return werr
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func checkFlushWalks(p *sim.Proc, e *Env, win *Win, np, trials int) error {
	rng := rand.New(rand.NewSource(int64(np)*31 + e.costs().FlushScanNS))
	costs := *e.costs()
	latency := e.net.Params().LatencyNS
	ref := sim.NewWorld(1).Proc(0)
	sh := e.sh
	for trial := 0; trial < trials; trial++ {
		pending := make([]bool, np)
		switch trial % 6 {
		case 0: // empty
		case 1:
			for i := range pending {
				pending[i] = true
			}
		case 2:
			for _, r := range []int{0, 63, 64, 65, np - 1} {
				if r < np && rng.Intn(2) == 0 {
					pending[r] = true
				}
			}
		case 3:
			pending[rng.Intn(np)] = true
		default:
			density := rng.Float64()
			for i := range pending {
				pending[i] = rng.Float64() < density
			}
		}
		pendingT := make([]int64, np)
		now := p.Now()
		for r, on := range pending {
			if on {
				// notePending keeps the max timestamp ever noted (a
				// flush does not reset it), so read back what it holds.
				win.notePending(r, now+int64(rng.Intn(10_000))-5_000)
				pendingT[r] = win.pendingT[r]
			}
		}
		ref.AdvanceTo(p.Now())
		scanned0 := sh.Counter(obs.CtrFlushAllScannedOps)
		edges0 := sh.EdgesRecorded()
		start := p.Now()

		rflush := trial%2 == 1
		var edge obs.Edge
		hasEdge := false
		lastEdge := func() {
			if hasEdge = sh.EdgesRecorded() != edges0; hasEdge {
				all := sh.Edges()
				edge = all[len(all)-1]
			}
		}
		if rflush {
			r, err := win.RflushAll()
			if err != nil {
				return err
			}
			wantDone, wantScanned := refRflushAll(ref, costs, latency, pending, pendingT)
			if r.completeT != wantDone {
				return fmt.Errorf("trial %d: RflushAll completes at %d, per-rank walk %d", trial, r.completeT, wantDone)
			}
			if got := sh.Counter(obs.CtrFlushAllScannedOps) - scanned0; got != int64(wantScanned) {
				return fmt.Errorf("trial %d: RflushAll scanned %d, per-rank walk %d", trial, got, wantScanned)
			}
			lastEdge()
			if hasEdge != (p.Now() > start) {
				return fmt.Errorf("trial %d: RflushAll edge recorded %v over [%d,%d]", trial, hasEdge, start, p.Now())
			}
			if hasEdge && edgeComp(edge, obs.CompFlushScan) != costs.FlushScanNS*int64(wantScanned) {
				return fmt.Errorf("trial %d: RflushAll scan component %d, want %d",
					trial, edgeComp(edge, obs.CompFlushScan), costs.FlushScanNS*int64(wantScanned))
			}
		} else {
			if err := win.FlushAll(); err != nil {
				return err
			}
			waited, flushed := refFlushAll(ref, costs, pending, pendingT)
			if got := sh.Counter(obs.CtrFlushAllScannedOps) - scanned0; got != int64(np) {
				return fmt.Errorf("trial %d: FlushAll scanned %d, want Size %d", trial, got, np)
			}
			if lastEdge(); !hasEdge {
				return fmt.Errorf("trial %d: FlushAll recorded no edge", trial)
			}
			for _, want := range []struct {
				c  obs.Component
				ns int64
			}{
				{obs.CompFlushScan, costs.FlushScanNS * int64(np)},
				{obs.CompFlushWait, waited},
				{obs.CompOverhead, costs.FlushNS * int64(flushed)},
			} {
				if got := edgeComp(edge, want.c); got != want.ns {
					return fmt.Errorf("trial %d: FlushAll edge component %v = %d, per-rank walk %d", trial, want.c, got, want.ns)
				}
			}
		}
		if p.Now() != ref.Now() {
			return fmt.Errorf("trial %d (rflush=%v): clock %d, per-rank walk %d",
				trial, rflush, p.Now(), ref.Now())
		}
		if hasEdge && (edge.Start != start || edge.End != p.Now()) {
			return fmt.Errorf("trial %d: edge spans [%d,%d], flush ran [%d,%d]", trial, edge.Start, edge.End, start, p.Now())
		}
		if next := win.hasPending.Next(0); next >= 0 || win.pendingTotal != 0 {
			return fmt.Errorf("trial %d: rank %d still pending (%d ops) after the flush", trial, next, win.pendingTotal)
		}
	}
	return nil
}
