package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cafmpi/caf"
	"cafmpi/internal/fabric"
	"cafmpi/internal/gasnet"
	"cafmpi/internal/mpi"
	"cafmpi/internal/sim"
)

// probeSizes are the world sizes and call counts of the layer probes.
type probeSizes struct {
	fabricNP, fabricWideNP, flushAllNP, allreduceNP, barrierNP, smallNP int
	fastOps, slowOps, collOps                                           int
}

func probeSizesFor(tiny bool) probeSizes {
	if tiny {
		return probeSizes{fabricNP: 8, fabricWideNP: 16, flushAllNP: 16, allreduceNP: 8, barrierNP: 8, smallNP: 4,
			fastOps: 200, slowOps: 50, collOps: 20}
	}
	return probeSizes{fabricNP: 8, fabricWideNP: 1024, flushAllNP: 1024, allreduceNP: 64, barrierNP: 256, smallNP: 8,
		fastOps: 10000, slowOps: 2000, collOps: 300}
}

// recorder times calls into one layer function: each call is a span under
// the probe's span, and its duration a sample for the percentiles.
type recorder struct {
	sp     *spans
	parent int
	name   string
	d      []time.Duration
}

func (r *recorder) time(fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.d = append(r.d, end.Sub(start))
	r.sp.add(r.name, r.parent, start, end)
	return err
}

// quantileNS returns the q-quantile of the recorded durations in ns (the
// nearest-rank definition).
func (r *recorder) quantileNS(q float64) float64 {
	if len(r.d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), r.d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	return float64(s[max(0, min(i, len(s)-1))].Nanoseconds())
}

// runProbes drives each layer's public functions directly and reports
// p50/p99 host ns per call. The seed picks peers, tags and offsets.
func runProbes(seed int64, tiny bool, sp *spans) (map[string]float64, error) {
	z := probeSizesFor(tiny)
	rng := rand.New(rand.NewSource(seed))
	out := map[string]float64{}
	type probe struct {
		metric string // per-layer metric prefix
		call   string // the layer function each span times
		p99    bool
		run    func(r *recorder) error
	}
	probes := []probe{
		{"fabric.exact_take_np8", "fabric.Endpoint.TryRecvSpec", true, func(r *recorder) error {
			return probeFabricTake(z.fabricNP, z.fastOps, false, rng, r)
		}},
		{"fabric.wildcard_take_np8", "fabric.Endpoint.TryRecvSpec", true, func(r *recorder) error {
			return probeFabricTake(z.fabricNP, z.fastOps, true, rng, r)
		}},
		{"fabric.wildcard_take_np1024", "fabric.Endpoint.TryRecvSpec", true, func(r *recorder) error {
			return probeFabricTake(z.fabricWideNP, z.fastOps, true, rng, r)
		}},
		{"mpi.put_flush", "mpi.Win.Put+Flush", false, func(r *recorder) error {
			return probePutFlush(z.smallNP, z.slowOps, rng, r)
		}},
		{"mpi.flushall_np1024", "mpi.Win.FlushAll", false, func(r *recorder) error {
			return probeFlushAll(z.flushAllNP, z.slowOps, false, rng, r)
		}},
		{"mpi.flushall_np1024_sparse", "mpi.Win.FlushAll", false, func(r *recorder) error {
			return probeFlushAll(z.flushAllNP, z.slowOps, true, rng, r)
		}},
		{"mpi.allreduce_np64", "mpi.Comm.Allreduce", false, func(r *recorder) error {
			return probeAllreduce(z.allreduceNP, z.collOps, rng, r)
		}},
		{"gasnet.am_roundtrip", "gasnet.Ep.AMRequestShort+PollUntil", false, func(r *recorder) error {
			return probeAMRoundTrip(z.smallNP, z.slowOps, rng, r)
		}},
		{"caf.put", "caf.Coarray.Put", false, func(r *recorder) error {
			return probeCoarray(z.smallNP, z.slowOps, true, rng, r)
		}},
		{"caf.get", "caf.Coarray.Get", false, func(r *recorder) error {
			return probeCoarray(z.smallNP, z.slowOps, false, rng, r)
		}},
		{"caf.event_pingpong", "caf.Events.Notify+Wait", false, func(r *recorder) error {
			return probeEventPingPong(z.slowOps, r)
		}},
		{"caf.barrier_np256", "caf.Team.Barrier", false, func(r *recorder) error {
			return probeBarrier(z.barrierNP, z.collOps, r)
		}},
	}
	for _, p := range probes {
		id, done := sp.open("probe "+p.metric, 0)
		r := &recorder{sp: sp, parent: id, name: p.call}
		err := p.run(r)
		done()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.metric, err)
		}
		out[p.metric+".p50_ns"] = r.quantileNS(0.50)
		if p.p99 {
			out[p.metric+".p99_ns"] = r.quantileNS(0.99)
		}
	}
	return out, nil
}

// probeContext bounds every probe world, so a hang becomes an error.
func probeContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), iterationDeadline)
}

// probeFabricTake sends from image 0 to a seeded peer's endpoint and takes
// the message back with an exact (source) or wildcard (AnySrc) spec; the
// take is the timed call.
func probeFabricTake(np, ops int, wildcard bool, rng *rand.Rand, r *recorder) error {
	dsts := make([]int, ops)
	tags := make([]int, ops)
	for i := range dsts {
		dsts[i], tags[i] = 1+rng.Intn(np-1), rng.Intn(64)
	}
	w := sim.NewWorld(np)
	return w.RunTimeout(iterationDeadline, func(p *sim.Proc) error {
		net := fabric.AttachNet(p.World(), fabric.Platform(platformName))
		if p.ID() != 0 {
			return nil
		}
		l := net.Layer("probe")
		spec := fabric.MatchSpec{Classes: fabric.AllClasses, Src: 0, Before: fabric.NoTimeGate}
		if wildcard {
			spec.Src = fabric.AnySrc
		}
		for i := range dsts {
			m := fabric.NewMessage()
			m.Dst, m.Tag = dsts[i], tags[i]
			if err := l.Send(p, m); err != nil {
				return err
			}
			ep := l.Endpoint(dsts[i])
			var got *fabric.Message
			_ = r.time(func() error { // TryRecvSpec reports no error
				got, _ = ep.TryRecvSpec(&spec)
				return nil
			})
			if got == nil || got.Tag != tags[i] {
				return fmt.Errorf("take %d found no message with tag %d", i, tags[i])
			}
			got.Release()
		}
		return nil
	})
}

// runMPI runs body on every image of a CAF-MPI job, handing it the image's
// MPI environment.
func runMPI(np int, sparse bool, body func(im *caf.Image, env *mpi.Env) error) error {
	ctx, cancel := probeContext()
	defer cancel()
	cfg := caf.Config{Substrate: caf.MPI, Platform: fabric.Platform(platformName), SparseFlush: sparse}
	return caf.RunContext(ctx, np, cfg, func(im *caf.Image) error {
		env, err := caf.MPIEnv(im)
		if err != nil {
			return err
		}
		return body(im, env)
	})
}

// withWindow opens a lock-all epoch on a fresh window, runs fn on image 0
// while the others wait in a barrier, and frees the window.
func withWindow(env *mpi.Env, im *caf.Image, size int, fn func(win *mpi.Win) error) error {
	win, err := mpi.WinAllocate(env.CommWorld(), size)
	if err != nil {
		return err
	}
	if err := win.LockAll(); err != nil {
		return err
	}
	if im.ID() == 0 {
		if err := fn(win); err != nil {
			return err
		}
	}
	if err := win.UnlockAll(); err != nil {
		return err
	}
	if err := env.CommWorld().Barrier(); err != nil {
		return err
	}
	return win.Free()
}

const winBytes = 4096

// seededTargets draws ops (peer, 8-byte-aligned offset) pairs.
func seededTargets(np, ops, msg int, rng *rand.Rand) (peers, offs []int) {
	peers, offs = make([]int, ops), make([]int, ops)
	for i := range peers {
		peers[i], offs[i] = 1+rng.Intn(np-1), 8*rng.Intn((winBytes-msg)/8)
	}
	return peers, offs
}

func probePutFlush(np, ops int, rng *rand.Rand, r *recorder) error {
	peers, offs := seededTargets(np, ops, 64, rng)
	buf := make([]byte, 64)
	return runMPI(np, false, func(im *caf.Image, env *mpi.Env) error {
		return withWindow(env, im, winBytes, func(win *mpi.Win) error {
			for i := range peers {
				if err := r.time(func() error {
					if err := win.Put(buf, peers[i], offs[i]); err != nil {
						return err
					}
					return win.Flush(peers[i])
				}); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// probeFlushAll times MPI_WIN_FLUSH_ALL after one put to a seeded peer: the
// flat mode scans every rank, the sparse mode only the dirty ones.
func probeFlushAll(np, ops int, sparse bool, rng *rand.Rand, r *recorder) error {
	peers, offs := seededTargets(np, ops, 8, rng)
	buf := make([]byte, 8)
	return runMPI(np, sparse, func(im *caf.Image, env *mpi.Env) error {
		return withWindow(env, im, winBytes, func(win *mpi.Win) error {
			for i := range peers {
				if err := win.Put(buf, peers[i], offs[i]); err != nil {
					return err
				}
				if err := r.time(win.FlushAll); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

func probeAllreduce(np, ops int, rng *rand.Rand, r *recorder) error {
	vals := make([]float64, ops)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	return runMPI(np, false, func(im *caf.Image, env *mpi.Env) error {
		comm := env.CommWorld()
		in, res := make([]float64, 1), make([]float64, 1)
		for i := range vals {
			in[0] = vals[i]
			call := func() error {
				return comm.Allreduce(caf.F64Bytes(in), caf.F64Bytes(res), mpi.Float64, mpi.OpSum)
			}
			if im.ID() == 0 {
				if err := r.time(call); err != nil {
					return err
				}
			} else if err := call(); err != nil {
				return err
			}
			if want := vals[i] * float64(np); res[0] < want*(1-1e-12) || res[0] > want*(1+1e-12) {
				return fmt.Errorf("allreduce %d: got %g, want %g", i, res[0], want)
			}
		}
		return nil
	})
}

// probeAMRoundTrip times a short active message to a seeded peer and the
// poll until its reply arrives, on a bare GASNet endpoint.
func probeAMRoundTrip(np, ops int, rng *rand.Rand, r *recorder) error {
	const (
		hPing = gasnet.MinHandlerID + iota
		hPong
		hStop
	)
	peers := make([]int, ops)
	for i := range peers {
		peers[i] = 1 + rng.Intn(np-1)
	}
	w := sim.NewWorld(np)
	return w.RunTimeout(iterationDeadline, func(p *sim.Proc) error {
		pongs, stopped := 0, false
		ep, err := gasnet.Attach(p, fabric.AttachNet(p.World(), fabric.Platform(platformName)), 0,
			gasnet.HandlerEntry{ID: hPing, Fn: func(tk *gasnet.Token, args []uint64, _ []byte) {
				if err := tk.ReplyShort(hPong, args...); err != nil {
					panic(err) // a bug in the probe's handler table
				}
			}},
			gasnet.HandlerEntry{ID: hPong, Fn: func(*gasnet.Token, []uint64, []byte) { pongs++ }},
			gasnet.HandlerEntry{ID: hStop, Fn: func(*gasnet.Token, []uint64, []byte) { stopped = true }})
		if err != nil {
			return err
		}
		if p.ID() != 0 {
			return ep.PollUntil(func() bool { return stopped })
		}
		for i, peer := range peers {
			if err := r.time(func() error {
				if err := ep.AMRequestShort(peer, hPing, uint64(i)); err != nil {
					return err
				}
				return ep.PollUntil(func() bool { return pongs > i })
			}); err != nil {
				return err
			}
		}
		for peer := 1; peer < np; peer++ {
			if err := ep.AMRequestShort(peer, hStop); err != nil {
				return err
			}
		}
		return nil
	})
}

func runCAF(np int, body func(im *caf.Image) error) error {
	ctx, cancel := probeContext()
	defer cancel()
	return caf.RunContext(ctx, np, caf.Config{Substrate: caf.MPI, Platform: fabric.Platform(platformName)}, body)
}

// probeCoarray times blocking coarray writes (put) or reads (get) from
// image 0 to seeded peers and offsets.
func probeCoarray(np, ops int, put bool, rng *rand.Rand, r *recorder) error {
	peers, offs := seededTargets(np, ops, 64, rng)
	return runCAF(np, func(im *caf.Image) error {
		co, err := im.AllocCoarray(im.World(), winBytes)
		if err != nil {
			return err
		}
		if im.ID() == 0 {
			buf := make([]byte, 64)
			for i := range peers {
				call := func() error { return co.Get(peers[i], offs[i], buf) }
				if put {
					call = func() error { return co.Put(peers[i], offs[i], buf) }
				}
				if err := r.time(call); err != nil {
					return err
				}
			}
		}
		if err := im.World().Barrier(); err != nil {
			return err
		}
		return co.Free()
	})
}

// probeEventPingPong times one event_notify/event_wait round trip between
// two images.
func probeEventPingPong(ops int, r *recorder) error {
	return runCAF(2, func(im *caf.Image) error {
		evs, err := im.NewEvents(im.World(), 2)
		if err != nil {
			return err
		}
		peer := 1 - im.ID()
		for i := 0; i < ops; i++ {
			if im.ID() == 0 {
				if err := r.time(func() error {
					if err := evs.Notify(peer, 0); err != nil {
						return err
					}
					return evs.Wait(1)
				}); err != nil {
					return err
				}
				continue
			}
			if err := evs.Wait(0); err != nil {
				return err
			}
			if err := evs.Notify(peer, 1); err != nil {
				return err
			}
		}
		return evs.Free()
	})
}

// probeBarrier times world barriers as image 0 sees them.
func probeBarrier(np, ops int, r *recorder) error {
	return runCAF(np, func(im *caf.Image) error {
		for i := 0; i < ops; i++ {
			if im.ID() == 0 {
				if err := r.time(im.World().Barrier); err != nil {
					return err
				}
			} else if err := im.World().Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}
