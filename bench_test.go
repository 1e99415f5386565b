// Package cafmpi_test holds the top-level benchmark harness: one testing.B
// wrapper per paper table/figure (regenerating the experiment at smoke
// scale and reporting its headline metric), ablation benchmarks for the
// design choices called out in DESIGN.md §6, and wall-clock benchmarks of
// the runtime primitives themselves.
//
// Regenerate everything at full scale with:
//
//	go run ./cmd/benchsuite -exp all
package cafmpi_test

import (
	"testing"

	"cafmpi/caf"
	"cafmpi/internal/bench"
	"cafmpi/internal/fabric"
	"cafmpi/internal/hpcc"
	"cafmpi/internal/mpi"
	"cafmpi/internal/rtmpi"
)

// runExperiment executes a registered experiment at smoke scale once per
// benchmark iteration and reports metric(table) in the given unit.
func runExperiment(b *testing.B, id string, metric func(*bench.Table) float64, unit string) {
	b.Helper()
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	opts := bench.Options{MaxP: 16, Quick: true}
	var last float64
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = metric(tab)
	}
	if unit != "" {
		b.ReportMetric(last, unit)
	}
}

// pick returns the Y of the row matching series at the largest X.
func pick(tab *bench.Table, series string) float64 {
	best, bestX := 0.0, -1
	for _, r := range tab.Rows {
		if r.Series == series && r.X > bestX {
			best, bestX = r.Y, r.X
		}
	}
	return best
}

func pickLabel(tab *bench.Table, series, label string) float64 {
	for _, r := range tab.Rows {
		if r.Series == series && r.Label == label {
			return r.Y
		}
	}
	return 0
}

// --- One benchmark per paper artifact ---

func BenchmarkFig01MemoryUsage(b *testing.B) {
	runExperiment(b, "fig1", func(t *bench.Table) float64 { return pick(t, "Duplicate Runtimes") }, "MB-dup")
}

func BenchmarkFig02Interop(b *testing.B) {
	runExperiment(b, "fig2", func(t *bench.Table) float64 {
		return pickLabel(t, "outcome", "CAF-GASNet (AM-mediated write)")
	}, "deadlocks")
}

func BenchmarkFig03RandomAccessFusion(b *testing.B) {
	runExperiment(b, "fig3", func(t *bench.Table) float64 { return pick(t, "CAF-MPI") }, "GUPS")
}

func BenchmarkFig04RADecomposition(b *testing.B) {
	runExperiment(b, "fig4", func(t *bench.Table) float64 {
		return pickLabel(t, "CAF-MPI", "event_notify")
	}, "notify-s")
}

func BenchmarkFig05RandomAccessEdison(b *testing.B) {
	runExperiment(b, "fig5", func(t *bench.Table) float64 { return pick(t, "CAF-GASNet") }, "GUPS")
}

func BenchmarkFig06FFTFusion(b *testing.B) {
	runExperiment(b, "fig6", func(t *bench.Table) float64 { return pick(t, "CAF-MPI") }, "GFlops")
}

func BenchmarkFig07FFTEdison(b *testing.B) {
	runExperiment(b, "fig7", func(t *bench.Table) float64 { return pick(t, "CAF-MPI") }, "GFlops")
}

func BenchmarkFig08FFTDecomposition(b *testing.B) {
	runExperiment(b, "fig8", func(t *bench.Table) float64 {
		return pickLabel(t, "CAF-GASNet", "alltoall")
	}, "a2a-s")
}

func BenchmarkFig09HPLFusion(b *testing.B) {
	runExperiment(b, "fig9", func(t *bench.Table) float64 { return pick(t, "CAF-MPI") }, "TFlops")
}

func BenchmarkFig10HPLEdison(b *testing.B) {
	runExperiment(b, "fig10", func(t *bench.Table) float64 { return pick(t, "CAF-MPI") }, "TFlops")
}

func BenchmarkFig11CGPOPFusion(b *testing.B) {
	runExperiment(b, "fig11", func(t *bench.Table) float64 { return pick(t, "CAF-MPI (PUSH)") }, "exec-s")
}

func BenchmarkFig12CGPOPEdison(b *testing.B) {
	runExperiment(b, "fig12", func(t *bench.Table) float64 { return pick(t, "CAF-GASNet (PULL)") }, "exec-s")
}

func BenchmarkTab1Platforms(b *testing.B) {
	runExperiment(b, "tab1", func(t *bench.Table) float64 { return float64(len(t.Rows)) }, "rows")
}

func BenchmarkMicroMira(b *testing.B) {
	runExperiment(b, "ubench-mira", func(t *bench.Table) float64 { return pick(t, "CAF-GASNet READ") }, "reads/s")
}

func BenchmarkMicroEdison(b *testing.B) {
	runExperiment(b, "ubench-edison", func(t *bench.Table) float64 { return pick(t, "CAF-MPI NOTIFY") }, "notifies/s")
}

func BenchmarkMicroFusion(b *testing.B) {
	runExperiment(b, "ubench-fusion", func(t *bench.Table) float64 { return pick(t, "CAF-MPI AlltoAll") }, "a2a/s")
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationRflush compares event_notify built on the blocking
// MPI_WIN_FLUSH_ALL against the paper's proposed MPI_WIN_RFLUSH (§5).
func BenchmarkAblationRflush(b *testing.B) {
	runExperiment(b, "ablation-rflush", func(t *bench.Table) float64 {
		return pick(t, "CAF-MPI(Rflush)") / pick(t, "CAF-MPI(FlushAll)")
	}, "speedup")
}

// BenchmarkAblationEventDesign compares the two §3.4 event designs under
// RandomAccess: the shipped ISEND/RECV events vs FETCH_AND_OP/CAS.
func BenchmarkAblationEventDesign(b *testing.B) {
	runExperiment(b, "ablation-events", func(t *bench.Table) float64 {
		return pick(t, "CAF-MPI(isend/recv events)") / pick(t, "CAF-MPI(atomic events)")
	}, "isend-advantage")
}

// BenchmarkAblationFinishFastPath measures the finish fast path (no
// function shipping: one reduction round) against a finish that must run
// termination detection over a spawn chain.
func BenchmarkAblationFinishFastPath(b *testing.B) {
	for _, mode := range []struct {
		name  string
		chain int
	}{{"fast-path", 0}, {"spawn-chain", 12}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			cfg := caf.Config{Substrate: caf.MPI, Platform: fabric.Platform("fusion")}
			var virt float64
			for i := 0; i < b.N; i++ {
				err := caf.Run(8, cfg, func(im *caf.Image) error {
					const fnHop uint64 = 1
					if err := im.RegisterFunc(fnHop, func(t *caf.Image, args []byte) {
						if args[0] > 0 {
							if err := t.Spawn(t.World(), (t.ID()+1)%t.N(), fnHop, []byte{args[0] - 1}); err != nil {
								panic(err)
							}
						}
					}); err != nil {
						return err
					}
					t0 := im.Now()
					err := im.Finish(im.World(), func() error {
						if mode.chain > 0 && im.ID() == 0 {
							return im.Spawn(im.World(), 1, fnHop, []byte{byte(mode.chain)})
						}
						return nil
					})
					if im.ID() == 0 {
						virt = im.Now() - t0
					}
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(virt*1e6, "virtual-us")
		})
	}
}

// BenchmarkAblationAlltoallSubstrate isolates the all-to-all gap behind the
// paper's FFT result: tuned MPI_ALLTOALL vs the hand-crafted put+AM
// construction, same payload.
func BenchmarkAblationAlltoallSubstrate(b *testing.B) {
	for _, sub := range []caf.Substrate{caf.MPI, caf.GASNet} {
		sub := sub
		b.Run(string(sub), func(b *testing.B) {
			cfg := caf.Config{Substrate: sub, Platform: fabric.Platform("fusion")}
			var virt float64
			for i := 0; i < b.N; i++ {
				err := caf.Run(16, cfg, func(im *caf.Image) error {
					send := make([]byte, 16*1024)
					recv := make([]byte, 16*1024)
					if err := im.World().Barrier(); err != nil {
						return err
					}
					t0 := im.Now()
					for k := 0; k < 10; k++ {
						if err := im.World().Alltoall(send, recv); err != nil {
							return err
						}
					}
					if im.ID() == 0 {
						virt = (im.Now() - t0) / 10
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(virt*1e6, "virtual-us/op")
		})
	}
}

// --- Wall-clock benchmarks of the runtime primitives ---

// BenchmarkPrimitiveFlushAllNP1024 measures a flat-mode MPI_WIN_FLUSH_ALL
// at np=1024 with one pending peer: each op is one Put, which makes the
// next peer in turn pending, then Win.FlushAll. The virtual charge scans all
// 1024 ranks (the paper's §4.1 pathology); the host walk visits only the
// pending one.
func BenchmarkPrimitiveFlushAllNP1024(b *testing.B) {
	const np = 1024
	cfg := caf.Config{Substrate: caf.MPI, Platform: fabric.Platform("fusion")}
	buf := make([]byte, 8)
	if err := caf.Run(np, cfg, func(im *caf.Image) error {
		env, err := caf.MPIEnv(im)
		if err != nil {
			return err
		}
		win, err := mpi.WinAllocate(env.CommWorld(), 64)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		if im.ID() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := win.Put(buf, 1+i%(np-1), 0); err != nil {
					return err
				}
				if err := win.FlushAll(); err != nil {
					return err
				}
			}
			b.StopTimer()
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		if err := env.CommWorld().Barrier(); err != nil {
			return err
		}
		return win.Free()
	}); err != nil {
		b.Fatal(err)
	}
}

func benchPrimitive(b *testing.B, sub caf.Substrate, fn func(im *caf.Image, iters int) error) {
	cfg := caf.Config{Substrate: sub, Platform: fabric.Platform("fusion")}
	if err := caf.Run(2, cfg, func(im *caf.Image) error {
		return fn(im, b.N)
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPrimitiveCoarrayPut(b *testing.B) {
	for _, sub := range []caf.Substrate{caf.MPI, caf.GASNet} {
		sub := sub
		b.Run(string(sub), func(b *testing.B) {
			benchPrimitive(b, sub, func(im *caf.Image, iters int) error {
				co, err := im.AllocCoarray(im.World(), 4096)
				if err != nil {
					return err
				}
				buf := make([]byte, 64)
				if im.ID() == 0 {
					for i := 0; i < iters; i++ {
						if err := co.Put(1, 0, buf); err != nil {
							return err
						}
					}
				}
				return im.World().Barrier()
			})
		})
	}
}

func BenchmarkPrimitiveEventPingPong(b *testing.B) {
	benchPrimitive(b, caf.MPI, func(im *caf.Image, iters int) error {
		evs, err := im.NewEvents(im.World(), 2)
		if err != nil {
			return err
		}
		peer := 1 - im.ID()
		for i := 0; i < iters; i++ {
			if im.ID() == 0 {
				if err := evs.Notify(peer, 0); err != nil {
					return err
				}
				if err := evs.Wait(1); err != nil {
					return err
				}
			} else {
				if err := evs.Wait(0); err != nil {
					return err
				}
				if err := evs.Notify(peer, 1); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func BenchmarkPrimitiveSpawnEcho(b *testing.B) {
	benchPrimitive(b, caf.MPI, func(im *caf.Image, iters int) error {
		const fnNop uint64 = 1
		if err := im.RegisterFunc(fnNop, func(*caf.Image, []byte) {}); err != nil {
			return err
		}
		return im.Finish(im.World(), func() error {
			if im.ID() == 0 {
				for i := 0; i < iters; i++ {
					if err := im.Spawn(im.World(), 1, fnNop, nil); err != nil {
						return err
					}
				}
			}
			return nil
		})
	})
}

func BenchmarkPrimitiveRandomAccessKernel(b *testing.B) {
	cfg := caf.Config{Substrate: caf.MPI, Platform: fabric.Platform("fusion")}
	for i := 0; i < b.N; i++ {
		var gups float64
		if err := caf.Run(8, cfg, func(im *caf.Image) error {
			res, err := hpcc.RandomAccess(im, hpcc.RAConfig{TableBits: 8, UpdatesPerImage: 512, BatchSize: 128})
			if err != nil {
				return err
			}
			if im.ID() == 0 {
				gups = res.GUPS
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gups, "virtual-GUPS")
	}
}

// BenchmarkPrimitiveRflushFence isolates the release-fence cost itself:
// FlushAll scan vs Rflush at P=32 with one outstanding put.
func BenchmarkPrimitiveRflushFence(b *testing.B) {
	for _, rf := range []bool{false, true} {
		rf := rf
		name := "flushall"
		if rf {
			name = "rflush"
		}
		b.Run(name, func(b *testing.B) {
			cfg := caf.Config{Substrate: caf.MPI, Platform: fabric.Platform("fusion"),
				MPIOptions: rtmpi.Options{UseRflush: rf}}
			var virt float64
			if err := caf.Run(32, cfg, func(im *caf.Image) error {
				co, err := im.AllocCoarray(im.World(), 64)
				if err != nil {
					return err
				}
				evs, err := im.NewEvents(im.World(), 1)
				if err != nil {
					return err
				}
				if im.ID() == 0 {
					t0 := im.Now()
					for i := 0; i < b.N; i++ {
						if err := co.PutDeferred(1, 0, []byte{1}); err != nil {
							return err
						}
						if err := evs.Notify(1, 0); err != nil {
							return err
						}
					}
					virt = (im.Now() - t0) / float64(b.N)
				}
				if im.ID() == 1 {
					for i := 0; i < b.N; i++ {
						if err := evs.Wait(0); err != nil {
							return err
						}
					}
				}
				return im.World().Barrier()
			}); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(virt*1e3, "virtual-us/notify")
		})
	}
}
