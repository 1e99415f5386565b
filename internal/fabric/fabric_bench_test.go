package fabric

import (
	"fmt"
	"testing"

	"cafmpi/internal/sim"
)

// BenchmarkFabricSendRecv measures the per-message wall-clock cost of the
// fabric fast path under a two-image ping-pong: injection (Send), matched
// receive, absorb, and the blocking wakeup in between. One op is a full
// round trip, so every iteration exercises the waiter path on both sides.
func BenchmarkFabricSendRecv(b *testing.B) {
	b.ReportAllocs()
	payload := make([]byte, 32)
	w := sim.NewWorld(2)
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		l := net.Layer("bench")
		ep := l.Endpoint(p.ID())
		peer := 1 - p.ID()
		for i := 0; i < b.N; i++ {
			if p.ID() == 0 {
				s := NewMessage()
				s.Dst, s.Tag, s.Data = peer, 1, payload
				l.Send(p, s)
				m := ep.Recv(func(m *Message) bool { return m.Tag == 2 })
				l.Absorb(p, m, 0)
				m.Release()
			} else {
				m := ep.Recv(func(m *Message) bool { return m.Tag == 1 })
				l.Absorb(p, m, 0)
				m.Release()
				s := NewMessage()
				s.Dst, s.Tag, s.Data = peer, 2, payload
				l.Send(p, s)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFabricWildcardMatch measures match cost on a deep queue fed by
// several senders: each round, ranks 1..nSend burst a mix of tagged
// messages at rank 0, which then drains them with exact (src, tag)
// MatchSpec receives for the rarest tag — the indexed path, which lands
// directly in the sender's bucket instead of scanning every queued
// message in arrival order — followed by wildcard receives for the rest
// (an arrival-ordered merge across all source buckets). This is the
// unexpected-message pattern that dominates RandomAccess-style traffic.
func BenchmarkFabricWildcardMatch(b *testing.B) {
	b.ReportAllocs()
	const (
		nSend   = 7  // senders (world size 8)
		perSrc  = 32 // messages per sender per round
		numTags = 4
	)
	w := sim.NewWorld(nSend + 1)
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		l := net.Layer("bench")
		ep := l.Endpoint(p.ID())
		if p.ID() == 0 {
			// One spec per source, filter bound once, reused every round —
			// the way the MPI progress engine holds its specs.
			specs := make([]MatchSpec, nSend+1)
			for s := 1; s <= nSend; s++ {
				specs[s] = MatchSpec{Classes: AllClasses, Src: s, Before: NoTimeGate,
					Filter: func(m *Message) bool { return m.Tag == numTags-1 }}
			}
			recvSpec := func(spec *MatchSpec) *Message {
				for {
					seq := ep.Seq()
					if m, _ := ep.TryRecvSpec(spec); m != nil {
						return m
					}
					ep.WaitActivity(seq)
				}
			}
			for i := 0; i < b.N; i++ {
				// Exact receives for the deepest-queued tag of each source.
				for s := 1; s <= nSend; s++ {
					for k := 0; k < perSrc/numTags; k++ {
						m := recvSpec(&specs[s])
						l.Absorb(p, m, 0)
						m.Release()
					}
				}
				// Wildcard receives drain everything else in arrival order.
				rest := nSend * perSrc * (numTags - 1) / numTags
				for k := 0; k < rest; k++ {
					m := ep.Recv(func(m *Message) bool { return m.Tag < numTags-1 })
					l.Absorb(p, m, 0)
					m.Release()
				}
				// Resynchronize the senders for the next round.
				for s := 1; s <= nSend; s++ {
					g := NewMessage()
					g.Dst, g.Tag = s, 99
					l.Send(p, g)
				}
			}
			return nil
		}
		for i := 0; i < b.N; i++ {
			for k := 0; k < perSrc; k++ {
				s := NewMessage()
				s.Dst, s.Tag = 0, k%numTags
				l.Send(p, s)
			}
			m := ep.Recv(func(m *Message) bool { return m.Tag == 99 })
			l.Absorb(p, m, 0)
			m.Release()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFabricWildcardTakeNP1024 measures one wildcard (AnySrc) take on
// a 1024-rank endpoint whose queue holds messages from only a few sources
// — the RandomAccess shape, where every MPI progress poll and AM poll is a
// wildcard probe. Each op takes the earliest message and re-enqueues it,
// so the live-source count stays fixed. The take should cost the same at
// any world size: it visits the live sources, not all 1024 buckets.
func BenchmarkFabricWildcardTakeNP1024(b *testing.B) {
	const np = 1024
	for _, live := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			l := AttachNet(sim.NewWorld(np), testParams()).Layer("bench")
			e := l.Endpoint(0)
			e.sh.mu.Lock()
			for k := 0; k < live; k++ {
				// Spread the sources over the rank range (and bitset words).
				e.enqueueLocked(&Message{Src: (k*331 + 7) % np, Tag: k})
			}
			e.sh.mu.Unlock()
			spec := MatchSpec{Classes: AllClasses, Src: AnySrc, Before: NoTimeGate}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, _ := e.TryRecvSpec(&spec)
				if m == nil {
					b.Fatal("wildcard take found nothing")
				}
				e.sh.mu.Lock()
				e.enqueueLocked(m)
				e.sh.mu.Unlock()
			}
		})
	}
}
