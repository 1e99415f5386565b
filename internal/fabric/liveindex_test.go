package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"cafmpi/internal/sim"
)

// refMatch is the linear reference for takeSpecLocked and PollStateFor: it
// tests every bucket of every selected class, empty or not, ignoring the
// live-source index. It returns the least-stamp eligible message, the
// earliest (ArriveT, stamp) among filter-matching messages when none is
// eligible, and the ungated earliest arrival a poll reports.
func refMatch(e *Endpoint, spec *MatchSpec) (best *Message, earl int64, hasEarl bool, poll int64, hasPoll bool) {
	var earlSeq uint64
	for c := 0; c < classLimit; c++ {
		cq := e.classes[c]
		if cq == nil || !spec.Classes.Has(uint8(c)) {
			continue
		}
		for s := range cq.srcs {
			if spec.Src != AnySrc && s != spec.Src {
				continue
			}
			b := &cq.srcs[s]
			for i := b.head; i < len(b.msgs); i++ {
				m := b.msgs[i]
				if spec.Filter != nil && !spec.Filter(m) {
					continue
				}
				if !hasPoll || m.ArriveT < poll {
					poll, hasPoll = m.ArriveT, true
				}
				if m.ArriveT <= spec.Before {
					if best == nil || m.aseq < best.aseq {
						best = m
					}
				} else if !hasEarl || m.ArriveT < earl || (m.ArriveT == earl && m.aseq < earlSeq) {
					earl, earlSeq, hasEarl = m.ArriveT, m.aseq, true
				}
			}
		}
	}
	if best != nil {
		return best, 0, false, poll, hasPoll
	}
	return nil, earl, hasEarl, poll, hasPoll
}

// checkIndex asserts the live-source index, the present-class mask and the
// depth agree with the buckets themselves.
func checkIndex(e *Endpoint) error {
	depth := 0
	for c, cq := range e.classes {
		if cq == nil {
			continue
		}
		count := 0
		for s := range cq.srcs {
			n := cq.srcs[s].size()
			if live := cq.live.Has(s); live != (n > 0) {
				return fmt.Errorf("class %d src %d: live bit %v with %d queued", c, s, live, n)
			}
			count += n
		}
		if count != cq.count {
			return fmt.Errorf("class %d: count %d, buckets hold %d", c, cq.count, count)
		}
		if e.present.Has(uint8(c)) != (count > 0) {
			return fmt.Errorf("class %d: present bit %v with %d queued", c, e.present.Has(uint8(c)), count)
		}
		depth += count
	}
	if depth != e.depth {
		return fmt.Errorf("depth %d, buckets hold %d", e.depth, depth)
	}
	return nil
}

// holdsDup reports whether any queued message carries DupKey k.
func holdsDup(e *Endpoint, k uint64) bool {
	for _, cq := range e.classes {
		if cq == nil {
			continue
		}
		for s := range cq.srcs {
			b := &cq.srcs[s]
			for i := b.head; i < len(b.msgs); i++ {
				if b.msgs[i].DupKey == k {
					return true
				}
			}
		}
	}
	return false
}

// TestLiveSourceIndexMatchesLinearScan drives one endpoint through a seeded
// random mix of enqueues (some injector-duplicated), exact and wildcard
// takes under tag filters and Before gates, peeks, fused take-or-peek
// probes and poll snapshots, and checks every result against a linear
// scan of all buckets: the live-source index may change how many buckets
// a wildcard visits, never which message it returns or what it reports.
// World sizes straddle the bitset's word boundary (64, 65) and reach
// np=1024, with sources biased toward ranks 0, 63, 64, 65 and np-1.
func TestLiveSourceIndexMatchesLinearScan(t *testing.T) {
	const (
		classes = 4
		tags    = 4
		horizon = 2000
		steps   = 4000
	)
	for _, np := range []int{8, 64, 65, 1024} {
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(np)*7919 + 1))
			l := AttachNet(sim.NewWorld(np), testParams()).Layer("t")
			e := l.Endpoint(0)
			var edges []int
			for _, r := range []int{0, 63, 64, 65, np - 1} {
				if r < np {
					edges = append(edges, r)
				}
			}
			pickSrc := func() int {
				if rng.Intn(2) == 0 {
					return edges[rng.Intn(len(edges))]
				}
				return rng.Intn(np)
			}
			randSpec := func() *MatchSpec {
				spec := &MatchSpec{Classes: AllClasses, Src: AnySrc, Before: NoTimeGate}
				if rng.Intn(3) == 0 {
					spec.Classes = ClassSet(rng.Intn(1<<classes-1) + 1)
				}
				if rng.Intn(2) == 0 {
					spec.Src = pickSrc()
				}
				if rng.Intn(2) == 0 {
					spec.Before = int64(rng.Intn(horizon))
				}
				switch rng.Intn(3) {
				case 0:
					tag := rng.Intn(tags)
					spec.Filter = func(m *Message) bool { return m.Tag == tag }
				case 1:
					tag := rng.Intn(tags)
					spec.Filter = func(m *Message) bool { return m.Tag <= tag }
				}
				return spec
			}
			var dupKey uint64
			for step := 0; step < steps; step++ {
				op := rng.Intn(10)
				switch {
				case op < 4: // enqueue, sometimes with an injector duplicate
					m := &Message{Src: pickSrc(), Class: uint8(rng.Intn(classes)),
						Tag: rng.Intn(tags), ArriveT: int64(rng.Intn(horizon))}
					batch := []*Message{m}
					if rng.Intn(4) == 0 {
						dupKey++
						m.DupKey = dupKey
						d := *m
						d.ArriveT += int64(rng.Intn(50))
						batch = append(batch, &d)
					}
					e.sh.mu.Lock()
					for _, q := range batch {
						e.enqueueLocked(q)
					}
					e.sh.mu.Unlock()
				case op < 6: // take
					spec := randSpec()
					want, earl, has, _, _ := refMatch(e, spec)
					depth := e.depth
					got, st := e.TryRecvSpec(spec)
					if got != want {
						t.Fatalf("step %d: TryRecvSpec(%+v) took %p, linear scan %p", step, *spec, got, want)
					}
					if st.Depth != depth || st.HasEarliest != has || (has && st.Earliest != earl) {
						t.Fatalf("step %d: TryRecvSpec state %+v, want depth %d earliest %d/%v",
							step, st, depth, earl, has)
					}
					if got != nil && got.DupKey != 0 && holdsDup(e, got.DupKey) {
						t.Fatalf("step %d: sibling of DupKey %d survived the take", step, got.DupKey)
					}
				case op < 7: // peek
					spec := randSpec()
					want, _, _, _, _ := refMatch(e, spec)
					depth := e.depth
					if got := e.PeekSpec(spec); got != want {
						t.Fatalf("step %d: PeekSpec took %p, linear scan %p", step, got, want)
					}
					if e.depth != depth {
						t.Fatalf("step %d: PeekSpec changed depth %d -> %d", step, depth, e.depth)
					}
				case op < 8: // fused take-or-peek
					recv, peek := randSpec(), randSpec()
					want, earl, has, _, _ := refMatch(e, recv)
					var pwant *Message
					var pearl int64
					var phas bool
					if want == nil {
						pwant, pearl, phas, _, _ = refMatch(e, peek)
					}
					m, st, pm, gearl, ghas := e.TryRecvPeek(recv, peek)
					if m != want || pm != pwant {
						t.Fatalf("step %d: TryRecvPeek took %p peeked %p, linear scan %p / %p", step, m, pm, want, pwant)
					}
					if st.HasEarliest != has || (has && st.Earliest != earl) ||
						ghas != phas || (phas && gearl != pearl) {
						t.Fatalf("step %d: TryRecvPeek earliest %d/%v peek %d/%v, want %d/%v peek %d/%v",
							step, st.Earliest, st.HasEarliest, gearl, ghas, earl, has, pearl, phas)
					}
				default: // poll snapshot
					spec := randSpec()
					_, _, _, poll, hasPoll := refMatch(e, spec)
					st := e.PollStateFor(spec)
					if st.Depth != e.depth || st.HasEarliest != hasPoll || (hasPoll && st.Earliest != poll) {
						t.Fatalf("step %d: PollStateFor %+v, want depth %d earliest %d/%v",
							step, st, e.depth, poll, hasPoll)
					}
				}
				if err := checkIndex(e); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}
