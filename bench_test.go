// Benchmark harness regenerating every table and figure of the paper's
// evaluation. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the paper's metric as testing.B custom metrics
// (logic cells, clock period, throughput), so `-bench` output is the
// reproduction of the corresponding table row; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package rijndaelip_test

import (
	"fmt"
	"runtime"
	"testing"

	"rijndaelip"
	"rijndaelip/internal/report"
	"rijndaelip/internal/rtl"
)

// BenchmarkBuild times one complete Build on the Acex1K — core
// generation, LUT mapping, fitting and timing — for the encryptor and the
// combined core: the set-up layer every engine pays once. Run with
// -benchmem; the mapper's transient arena shows in B/op. The live-KiB
// metric is what one built Implementation keeps on the heap after a
// forced GC: the memory a design holds for the life of its engines.
func BenchmarkBuild(b *testing.B) {
	for _, v := range []rijndaelip.Variant{rijndaelip.Encrypt, rijndaelip.Both} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rijndaelip.Build(v, rijndaelip.Acex1K()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			base := liveHeap()
			impl, err := rijndaelip.Build(v, rijndaelip.Acex1K())
			if err != nil {
				b.Fatal(err)
			}
			live := liveHeap() - base
			runtime.KeepAlive(impl)
			b.ReportMetric(float64(live)/1024, "live-KiB")
		})
	}
}

// liveHeap returns the bytes of live heap objects after a forced GC.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkTable1DeviceSignals regenerates Table 1: the device interface
// pin budget for each variant (261 pins single-direction, 262 combined).
func BenchmarkTable1DeviceSignals(b *testing.B) {
	for _, v := range []rijndaelip.Variant{rijndaelip.Encrypt, rijndaelip.Decrypt, rijndaelip.Both} {
		b.Run(v.String(), func(b *testing.B) {
			var pins int
			for i := 0; i < b.N; i++ {
				impl, err := rijndaelip.Build(v, rijndaelip.Acex1K())
				if err != nil {
					b.Fatal(err)
				}
				pins = impl.Fit.Pins
			}
			b.ReportMetric(float64(pins), "pins")
		})
	}
}

// BenchmarkTable2 regenerates the paper's Table 2: one sub-benchmark per
// (variant, device) cell running the complete flow and reporting the
// paper's metrics.
func BenchmarkTable2(b *testing.B) {
	for _, v := range []rijndaelip.Variant{rijndaelip.Encrypt, rijndaelip.Decrypt, rijndaelip.Both} {
		for _, dev := range []rijndaelip.Device{rijndaelip.Acex1K(), rijndaelip.Cyclone()} {
			name := fmt.Sprintf("%s/%s", v, dev.Family)
			b.Run(name, func(b *testing.B) {
				var impl *rijndaelip.Implementation
				var err error
				for i := 0; i < b.N; i++ {
					impl, err = rijndaelip.Build(v, dev)
					if err != nil {
						b.Fatal(err)
					}
				}
				cell := impl.Table2Cell()
				b.ReportMetric(float64(cell.LCs), "LCs")
				b.ReportMetric(float64(cell.MemoryBits), "membits")
				b.ReportMetric(cell.ClkNS, "clk-ns")
				b.ReportMetric(cell.LatencyNS, "latency-ns")
				b.ReportMetric(cell.ThroughputMbps, "Mbps")
				if paper, ok := report.FindPaperCell(cell.Variant, cell.Device); ok {
					b.ReportMetric(paper.ThroughputMbps, "paper-Mbps")
				}
			})
		}
	}
}

// BenchmarkTable3 regenerates Table 3's measured rows: the reimplemented
// comparison architectures plus this work.
func BenchmarkTable3(b *testing.B) {
	b.Run("lowcost8bit", func(b *testing.B) {
		var r *rijndaelip.BaselineResult
		var err error
		for i := 0; i < b.N; i++ {
			r, err = rijndaelip.BuildBaseline(rijndaelip.Width8, rijndaelip.Acex1K())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(r.Fit.LogicCells), "LCs")
		b.ReportMetric(r.ThroughputMbps(), "Mbps")
	})
	b.Run("parallel128bit", func(b *testing.B) {
		var r *rijndaelip.BaselineResult
		var err error
		for i := 0; i < b.N; i++ {
			r, err = rijndaelip.BuildBaseline(rijndaelip.Width128, rijndaelip.Apex20KE())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(r.Fit.LogicCells), "LCs")
		b.ReportMetric(float64(r.Fit.MemoryBits), "membits")
		b.ReportMetric(r.ThroughputMbps(), "Mbps")
	})
	b.Run("thiswork", func(b *testing.B) {
		var impl *rijndaelip.Implementation
		var err error
		for i := 0; i < b.N; i++ {
			impl, err = rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(impl.Fit.LogicCells), "LCs")
		b.ReportMetric(impl.ThroughputMbps(), "Mbps")
	})
}

// BenchmarkFig5SBoxMemory regenerates the Fig. 5 discussion: S-box memory
// versus ByteSub parallelism (2 Kbit per S-box; 8 Kbit for a 32-bit bank;
// 32 Kbit for full parallelism).
func BenchmarkFig5SBoxMemory(b *testing.B) {
	cases := []struct {
		name  string
		build func() (int, error)
	}{
		{"8bit-1box", func() (int, error) {
			r, err := rijndaelip.BuildBaseline(rijndaelip.Width8, rijndaelip.Acex1K())
			if err != nil {
				return 0, err
			}
			return r.Fit.MemoryBits, nil
		}},
		{"32bit-4boxes", func() (int, error) {
			impl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
			if err != nil {
				return 0, err
			}
			return impl.Fit.MemoryBits, nil
		}},
		{"128bit-16boxes", func() (int, error) {
			r, err := rijndaelip.BuildBaseline(rijndaelip.Width128, rijndaelip.Apex20KE())
			if err != nil {
				return 0, err
			}
			return r.Fit.MemoryBits, nil
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var bits int
			var err error
			for i := 0; i < b.N; i++ {
				bits, err = c.build()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bits), "membits")
		})
	}
}

// BenchmarkAblationWidths regenerates the §4/§6 datapath-width comparison
// the paper argues from: cycles per block, clock and throughput for the
// 8-bit, 32-bit, mixed and 128-bit organizations.
func BenchmarkAblationWidths(b *testing.B) {
	run := func(name string, cycles int, build func() (lc int, clk, mbps float64, err error)) {
		b.Run(name, func(b *testing.B) {
			var lc int
			var clk, mbps float64
			var err error
			for i := 0; i < b.N; i++ {
				lc, clk, mbps, err = build()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cycles), "cycles")
			b.ReportMetric(float64(lc), "LCs")
			b.ReportMetric(clk, "clk-ns")
			b.ReportMetric(mbps, "Mbps")
		})
	}
	run("w8", 250, func() (int, float64, float64, error) {
		r, err := rijndaelip.BuildBaseline(rijndaelip.Width8, rijndaelip.Acex1K())
		if err != nil {
			return 0, 0, 0, err
		}
		return r.Fit.LogicCells, r.ClockNS(), r.ThroughputMbps(), nil
	})
	run("w32", 120, func() (int, float64, float64, error) {
		r, err := rijndaelip.BuildBaseline(rijndaelip.Width32, rijndaelip.Acex1K())
		if err != nil {
			return 0, 0, 0, err
		}
		return r.Fit.LogicCells, r.ClockNS(), r.ThroughputMbps(), nil
	})
	run("mixed", 50, func() (int, float64, float64, error) {
		impl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
		if err != nil {
			return 0, 0, 0, err
		}
		return impl.Fit.LogicCells, impl.ClockNS(), impl.ThroughputMbps(), nil
	})
	run("w128", 10, func() (int, float64, float64, error) {
		r, err := rijndaelip.BuildBaseline(rijndaelip.Width128, rijndaelip.Apex20KE())
		if err != nil {
			return 0, 0, 0, err
		}
		return r.Fit.LogicCells, r.ClockNS(), r.ThroughputMbps(), nil
	})
}

// BenchmarkFutureSyncROM regenerates the paper's §5 future-work
// experiment: synchronous M4K ROM S-boxes on Cyclone.
func BenchmarkFutureSyncROM(b *testing.B) {
	style := rtl.ROMSync
	for _, v := range []rijndaelip.Variant{rijndaelip.Encrypt, rijndaelip.Decrypt, rijndaelip.Both} {
		b.Run(v.String(), func(b *testing.B) {
			var impl *rijndaelip.Implementation
			var err error
			for i := 0; i < b.N; i++ {
				impl, err = rijndaelip.Build(v, rijndaelip.Cyclone(),
					rijndaelip.Options{ROMStyle: &style})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(impl.Fit.LogicCells), "LCs")
			b.ReportMetric(float64(impl.Fit.MemoryBits), "membits")
			b.ReportMetric(impl.ThroughputMbps(), "Mbps")
		})
	}
}

// BenchmarkFig8Streaming exercises the decoupled Data In / Out processes
// of Figs. 8/9: sustained cycles per block when loads overlap processing.
func BenchmarkFig8Streaming(b *testing.B) {
	impl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		b.Fatal(err)
	}
	drv := impl.NewDriver()
	if _, err := drv.LoadKey(make([]byte, 16)); err != nil {
		b.Fatal(err)
	}
	blocks := make([][]byte, 16)
	for i := range blocks {
		blocks[i] = make([]byte, 16)
		blocks[i][0] = byte(i)
	}
	b.SetBytes(int64(len(blocks) * 16))
	var sustained float64
	for i := 0; i < b.N; i++ {
		_, res, err := drv.Stream(blocks, true)
		if err != nil {
			b.Fatal(err)
		}
		sustained = res.CyclesPerBlock
	}
	b.ReportMetric(sustained, "cycles/block")
	b.ReportMetric(128/(sustained*impl.ClockNS())*1000, "sustained-Mbps")
}
