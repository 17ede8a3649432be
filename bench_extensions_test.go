package rijndaelip_test

import (
	"errors"
	"testing"

	"rijndaelip"
	"rijndaelip/internal/baseline"
	"rijndaelip/internal/fpga"
	"rijndaelip/internal/narrowbus"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/rijndael"
	"rijndaelip/internal/rtl"
	"rijndaelip/internal/techmap"
)

// BenchmarkMapperEffort is the flow ablation called out in DESIGN.md: LUT
// counts and mapped depth with and without the mapper's area-recovery
// pass, on the encryptor core.
func BenchmarkMapperEffort(b *testing.B) {
	core, err := rijndael.New(rijndael.Config{Variant: rijndael.Encrypt, ROMStyle: rtl.ROMAsync})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		opt  techmap.Options
	}{
		{"depth-only", techmap.Options{NoAreaRecovery: true}},
		{"area-recovery", techmap.Options{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var luts int
			for i := 0; i < b.N; i++ {
				nl, err := core.Design.Synthesize(cfg.opt)
				if err != nil {
					b.Fatal(err)
				}
				luts = nl.NumLUTs()
			}
			b.ReportMetric(float64(luts), "LUTs")
		})
	}
}

// BenchmarkSection6Power regenerates the §6 future-work power analysis:
// energy per block per variant on the primary device.
func BenchmarkSection6Power(b *testing.B) {
	key := []byte("bench-power-key!")
	for _, v := range []rijndaelip.Variant{rijndaelip.Encrypt, rijndaelip.Decrypt, rijndaelip.Both} {
		b.Run(v.String(), func(b *testing.B) {
			impl, err := rijndaelip.Build(v, rijndaelip.Acex1K())
			if err != nil {
				b.Fatal(err)
			}
			var perBlock, mw float64
			for i := 0; i < b.N; i++ {
				rep, err := impl.MeasurePower(key, 4)
				if err != nil {
					b.Fatal(err)
				}
				perBlock = rep.DynamicEnergyNJ / 4
				mw = rep.PowerMW
			}
			b.ReportMetric(perBlock, "nJ/block")
			b.ReportMetric(mw, "mW")
		})
	}
}

// BenchmarkRadiationHardening regenerates the §6 pointer to the
// SEU-hardened IP: the TMR cost in logic cells and throughput.
func BenchmarkRadiationHardening(b *testing.B) {
	impl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		b.Fatal(err)
	}
	var lcs int
	var mbps float64
	for i := 0; i < b.N; i++ {
		hard, err := impl.Harden()
		if err != nil {
			b.Fatal(err)
		}
		lcs = hard.Fit.LogicCells
		mbps = hard.ThroughputMbps()
	}
	b.ReportMetric(float64(lcs), "LCs")
	b.ReportMetric(mbps, "Mbps")
	b.ReportMetric(float64(impl.Fit.LogicCells), "base-LCs")
}

// BenchmarkResilience measures what the self-checking path costs per
// block against the plain HardwareBlock: simulated cycles and wall-clock
// for the watchdog-only, lockstep (dual-core) and inverse-check policies
// on a one-shard, one-lane supervised engine's Block(), plus the degraded
// software fallback for scale. Note the wall-clock baseline shift:
// HardwareBlock simulates the elaborated RTL while the supervised engine
// simulates the mapped netlist, so the interesting ratios are
// lockstep/watchdog (~2x, the shadow replica) and inverse/watchdog (2x
// cycles, the second transaction). The engine's cycle account includes
// the wr_data load edge, so a supervised block costs 51 cycles against
// HardwareBlock's 50. Nothing is struck, so the delivery ROM scrub finds
// every store clean and each row prices its check policy alone.
func BenchmarkResilience(b *testing.B) {
	encImpl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		b.Fatal(err)
	}
	bothImpl, err := rijndaelip.Build(rijndaelip.Both, rijndaelip.Acex1K())
	if err != nil {
		b.Fatal(err)
	}
	key := []byte("resilience-bench")
	block := make([]byte, 16)
	out := make([]byte, 16)

	b.Run("hwblock-plain", func(b *testing.B) {
		hw, err := encImpl.NewHardwareBlock(key)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hw.Encrypt(out, block)
		}
		b.StopTimer()
		if hw.Err() != nil {
			b.Fatal(hw.Err())
		}
		b.ReportMetric(float64(hw.Cycles)/float64(b.N), "cycles/block")
	})

	// device is the single self-checking device: one shard, one lane.
	device := func(b *testing.B, impl *rijndaelip.Implementation, sup rijndaelip.SupervisorOptions) *rijndaelip.Engine {
		eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{Shards: 1, MaxLanes: 1, Supervise: &sup})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(eng.Close)
		return eng
	}
	supervised := func(impl *rijndaelip.Implementation, check rijndaelip.CheckPolicy) func(*testing.B) {
		return func(b *testing.B) {
			eng := device(b, impl, rijndaelip.SupervisorOptions{Check: check})
			blk := eng.Block()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk.Encrypt(out, block)
			}
			b.StopTimer()
			if blk.Err() != nil {
				b.Fatal(blk.Err())
			}
			st := eng.Stats()
			if st.Detections != 0 || st.FallbackBlocks != 0 {
				b.Fatalf("fault-free benchmark left the hardware path: %+v", st)
			}
			b.ReportMetric(float64(st.MaxShardCycles)/float64(b.N), "cycles/block")
		}
	}
	b.Run("resilient-watchdog", supervised(encImpl, rijndaelip.CheckNone))
	b.Run("resilient-lockstep", supervised(encImpl, rijndaelip.CheckLockstep))
	b.Run("resilient-inverse", supervised(bothImpl, rijndaelip.CheckInverse))

	b.Run("degraded-software", func(b *testing.B) {
		// A hard defect struck before every submission fails the in-place
		// retry, so the shard is quarantined; its respawn is vetoed, so
		// the circuit breaker declares it dead and the engine
		// serves everything from the software reference — the floor the
		// hardware path is compared against.
		eng := device(b, encImpl, rijndaelip.SupervisorOptions{
			Check: rijndaelip.CheckLockstep,
			Strike: func(_ int, _ uint64, sim *netlist.Simulator) {
				sim.StickFF(sim.FindFF("s0[0]"), true)
			},
			RespawnHook: func(shard int) error { return errors.New("replica slot damaged") },
		})
		blk := eng.Block()
		blk.Encrypt(out, block) // burn the hardware path, trip quarantine
		if h := eng.Stats().Shards[0].Health; h != "dead" {
			b.Fatalf("vetoed respawn left the shard %s, want dead", h)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk.Encrypt(out, block)
		}
		b.StopTimer()
		b.ReportMetric(0, "cycles/block")
	})
}

// BenchmarkNarrowBusTransaction measures the §4 narrow-interface trade:
// total host cycles per block and host-side pins over 32- and 16-bit
// buses versus the native 261-pin interface.
func BenchmarkNarrowBusTransaction(b *testing.B) {
	core, err := rijndael.New(rijndael.Config{Variant: rijndael.Encrypt, ROMStyle: rtl.ROMAsync})
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{16, 32} {
		b.Run(map[int]string{16: "w16", 32: "w32"}[width], func(b *testing.B) {
			sys, err := narrowbus.NewSystem(core, width)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.LoadKey(make([]byte, 16)); err != nil {
				b.Fatal(err)
			}
			block := make([]byte, 16)
			var cycles int
			for i := 0; i < b.N; i++ {
				_, cycles, err = sys.Process(block)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cycles), "host-cycles")
			b.ReportMetric(float64(sys.Adapter.HostPins), "host-pins")
		})
	}
}

// BenchmarkPlacedTiming is the flow-depth ablation: the fanout-model clock
// estimate versus the placement-aware one after simulated-annealing
// placement on the device LAB grid.
func BenchmarkPlacedTiming(b *testing.B) {
	impl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		b.Fatal(err)
	}
	var placed *rijndaelip.PlacedResult
	for i := 0; i < b.N; i++ {
		placed, err = impl.PlaceAndTime(2003)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(impl.ClockNS(), "est-clk-ns")
	b.ReportMetric(placed.Timing.Period, "placed-clk-ns")
	b.ReportMetric(placed.HPWL, "HPWL")
	b.ReportMetric(placed.InitialHPWL, "initial-HPWL")
}

// BenchmarkAES256Extension reports the AES-256 family's flow results next
// to the paper's AES-128 numbers.
func BenchmarkAES256Extension(b *testing.B) {
	for _, v := range []rijndaelip.Variant{rijndaelip.Encrypt, rijndaelip.Decrypt, rijndaelip.Both} {
		b.Run(v.String(), func(b *testing.B) {
			var impl *rijndaelip.Implementation
			var err error
			for i := 0; i < b.N; i++ {
				impl, err = rijndaelip.Build256(v, rijndaelip.Acex1K())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(impl.Fit.LogicCells), "LCs")
			b.ReportMetric(float64(impl.Core.BlockLatency), "cycles")
			b.ReportMetric(impl.ThroughputMbps(), "Mbps")
		})
	}
}

// BenchmarkKeyScheduleAblation quantifies the paper's central design
// decision: on-the-fly round keys (the paper's core) versus a precomputed
// round-key register file with its read mux.
func BenchmarkKeyScheduleAblation(b *testing.B) {
	acex := rijndaelip.Acex1K()
	b.Run("onthefly", func(b *testing.B) {
		var impl *rijndaelip.Implementation
		var err error
		for i := 0; i < b.N; i++ {
			impl, err = rijndaelip.Build(rijndaelip.Encrypt, acex)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(impl.Fit.LogicCells), "LCs")
		b.ReportMetric(float64(impl.Netlist.FFs), "FFs")
		b.ReportMetric(float64(impl.Core.KeySetupCycles), "setup-cycles")
	})
	b.Run("prekeys", func(b *testing.B) {
		var fitLCs, ffs int
		for i := 0; i < b.N; i++ {
			core, err := baseline.NewPrecomputedKeys(rtl.ROMAsync)
			if err != nil {
				b.Fatal(err)
			}
			nl, err := core.Design.Synthesize(techmap.Options{})
			if err != nil {
				b.Fatal(err)
			}
			fit, err := fpga.Fit(nl, acex)
			if err != nil {
				b.Fatal(err)
			}
			fitLCs, ffs = fit.LogicCells, nl.NumFFs()
		}
		b.ReportMetric(float64(fitLCs), "LCs")
		b.ReportMetric(float64(ffs), "FFs")
		b.ReportMetric(10, "setup-cycles")
	})
}
