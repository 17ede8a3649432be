// Command aesip pushes blocks through the cycle-accurate simulation of the
// Rijndael IP: it loads a key over the Table 1 bus interface, processes hex
// blocks, verifies every result against the FIPS-197 software reference
// and reports the protocol timing.
//
//	aesip -key 2b7e151628aed2a6abf7158809cf4f3c -in 3243f6a8885a308d313198a2e0370734
//	aesip -variant both -dec -key ... -in ...
//	aesip -shards 4 -in <block>,<block>,...   # sharded engine with a throughput report
//	aesip -chaos 50                           # live fault-injection run against a supervised engine
//	aesip -chaos 50 -stuckat 2                # mixed run: transient flips plus welded stuck-at ROM bits
package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"rijndaelip"
	"rijndaelip/internal/chaos"
	"rijndaelip/internal/obs"
	"rijndaelip/internal/rtl"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "aesip: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	keyHex := flag.String("key", "000102030405060708090a0b0c0d0e0f", "128-bit key, hex")
	inHex := flag.String("in", "00112233445566778899aabbccddeeff", "one or more 16-byte blocks, hex, comma separated")
	dec := flag.Bool("dec", false, "decrypt instead of encrypt")
	variantName := flag.String("variant", "", "device variant: encrypt, decrypt or both (default: matches the operation)")
	deviceName := flag.String("device", "acex", "device model: acex or cyclone")
	sync := flag.Bool("sync", false, "use the synchronous-ROM future-work core")
	shards := flag.Int("shards", 0, "process blocks through a sharded engine with N replicated cores (0: single-driver bus protocol path)")
	lanes := flag.Int("lanes", 0, "max blocks packed per lane-parallel submission, 1..64 (0: full 64-lane packing; engine mode only)")
	chaosRate := flag.Int("chaos", 0, "run the live chaos harness: strike a supervised engine about once per N submissions and verify every block (ignores -in)")
	chaosBlocks := flag.Int("chaos-blocks", 256, "blocks per chaos wave")
	chaosWaves := flag.Int("chaos-waves", 4, "chaos waves (respawned shards rejoin between waves)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the chaos traffic and strike schedule")
	stuckAt := flag.Int("stuckat", 0, "weld one stuck-at ROM bit into each of M shards during the chaos run (EDAC-masked: only the delivery ROM scrub can find them)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /trace, /debug/vars and /debug/pprof on this address during engine and chaos runs (e.g. :9100)")
	traceDump := flag.Bool("trace-dump", false, "print the supervision event trace after an engine or chaos run")
	flag.Parse()

	key, err := hex.DecodeString(*keyHex)
	if err != nil || len(key) != 16 {
		fail("key must be 32 hex digits")
	}

	variant := rijndaelip.Encrypt
	if *dec {
		variant = rijndaelip.Decrypt
	}
	switch strings.ToLower(*variantName) {
	case "":
	case "encrypt", "enc":
		variant = rijndaelip.Encrypt
	case "decrypt", "dec":
		variant = rijndaelip.Decrypt
	case "both":
		variant = rijndaelip.Both
	default:
		fail("unknown variant %q", *variantName)
	}

	var dev rijndaelip.Device
	switch strings.ToLower(*deviceName) {
	case "acex", "acex1k":
		dev = rijndaelip.Acex1K()
	case "cyclone":
		dev = rijndaelip.Cyclone()
	default:
		fail("unknown device %q", *deviceName)
	}

	var opts []rijndaelip.Options
	if *sync {
		style := rtl.ROMSync
		opts = append(opts, rijndaelip.Options{ROMStyle: &style})
	}
	impl, err := rijndaelip.Build(variant, dev, opts...)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("core %s on %s: %d LCs, %d memory bits, clk %.2f ns, %d cycles/block\n",
		impl.Core.Design.Name, dev.Name, impl.Fit.LogicCells, impl.Fit.MemoryBits,
		impl.ClockNS(), impl.Core.BlockLatency)

	var blocks [][]byte
	for _, blockHex := range strings.Split(*inHex, ",") {
		block, err := hex.DecodeString(strings.TrimSpace(blockHex))
		if err != nil || len(block) != 16 {
			fail("block %q must be 32 hex digits", blockHex)
		}
		blocks = append(blocks, block)
	}

	ref, err := rijndaelip.NewCipher(key)
	if err != nil {
		fail("%v", err)
	}

	if *chaosRate > 0 {
		runChaos(impl, key, *shards, *lanes, *chaosRate, *chaosBlocks, *chaosWaves, *stuckAt, *chaosSeed, *metricsAddr, *traceDump)
		return
	}

	if *shards > 0 {
		runEngine(impl, key, blocks, ref, *shards, *lanes, *dec, *metricsAddr, *traceDump)
		return
	}

	drv := impl.NewDriver()
	setupCycles, err := drv.LoadKey(key)
	if err != nil {
		fail("LoadKey: %v", err)
	}
	fmt.Printf("key loaded in %d cycles\n", setupCycles)

	for _, block := range blocks {
		out, cycles, err := drv.Process(block, !*dec)
		if err != nil {
			fail("process: %v", err)
		}
		want := make([]byte, 16)
		if *dec {
			ref.Decrypt(want, block)
		} else {
			ref.Encrypt(want, block)
		}
		status := "OK (matches FIPS-197 reference)"
		if !bytes.Equal(out, want) {
			status = fmt.Sprintf("MISMATCH (reference %x)", want)
		}
		op := "encrypt"
		if *dec {
			op = "decrypt"
		}
		fmt.Printf("%s %x -> %x  [%d cycles, %.0f ns at %.2f ns clk]  %s\n",
			op, block, out, cycles, float64(cycles)*impl.ClockNS(), impl.ClockNS(), status)
		if !bytes.Equal(out, want) {
			os.Exit(1)
		}
	}
}

// serveMetrics binds the observability endpoints for the duration of the
// run, announcing the scrape URL. Returns a closer (no-op when addr is
// empty or the engine has observability disabled).
func serveMetrics(addr string, eng *rijndaelip.Engine) func() {
	if addr == "" {
		return func() {}
	}
	obs.PublishExpvar("aesip_engine", eng.Metrics())
	srv, bound, err := obs.Serve(addr, eng.Metrics(), eng.Trace())
	if err != nil {
		fail("metrics: %v", err)
	}
	fmt.Printf("metrics: serving http://%s/metrics (plus /trace, /debug/vars, /debug/pprof)\n", bound)
	return func() { _ = srv.Close() }
}

// dumpTrace prints the supervision event trace, oldest first.
func dumpTrace(events []obs.Event, overwritten uint64) {
	if overwritten > 0 {
		fmt.Printf("trace: %d older events lost to ring wraparound\n", overwritten)
	}
	for _, ev := range events {
		fmt.Printf("trace: %s\n", ev)
	}
}

// runChaos drives seeded traffic through a supervised engine while the
// chaos injector strikes live shards (and optionally welds stuck-at ROM
// bits), then prints the triage report, localization log and per-shard
// health.
func runChaos(impl *rijndaelip.Implementation, key []byte, shards, lanes, rate, blocks, waves, stuckAt int, seed int64, metricsAddr string, traceDump bool) {
	closeMetrics := func() {}
	rc := chaos.RunConfig{
		Shards:   shards, // 0 takes the harness default of 4
		MaxLanes: lanes,
		Blocks:   blocks,
		Waves:    waves,
		Baseline: true,
		Chaos:    chaos.Config{Seed: seed, Period: rate, StuckAt: stuckAt},
		OnEngine: func(eng *rijndaelip.Engine) { closeMetrics = serveMetrics(metricsAddr, eng) },
	}
	defer func() { closeMetrics() }()
	fmt.Printf("chaos: supervised engine under live strikes (about 1 per %d submissions, seed %d", rate, seed)
	if stuckAt > 0 {
		fmt.Printf(", %d welded stuck-at ROM bits", stuckAt)
	}
	fmt.Println(")")
	rep, err := chaos.Run(context.Background(), impl, key, rc)
	if err != nil {
		fail("chaos: %v", err)
	}
	fmt.Println(rep)
	fmt.Printf("triage: %d transients recovered in place, %d escalations, %d persistent classifications; scrub: %d repaired, %d uncorrectable\n",
		rep.Stats.Transients, rep.Stats.Escalations, rep.Stats.Persistents,
		rep.Stats.ScrubCorrected, rep.Stats.ScrubUncorrectable)
	for _, d := range rep.Diagnoses {
		fmt.Printf("diagnosis: %v\n", d)
	}
	for _, p := range rep.Planted {
		fmt.Printf("planted: shard %d rom %s word 0x%02x bit %d\n", p.Shard, p.ROM, p.Word, p.Bit)
	}
	for _, ss := range rep.Stats.Shards {
		fmt.Printf("shard %d: %s (generation %d), %d blocks, %d detections (%d transient), %d quarantines, %d respawns\n",
			ss.Shard, ss.Health, ss.Generation, ss.Blocks, ss.Detections, ss.Transients, ss.Quarantines, ss.Respawns)
	}
	if traceDump {
		dumpTrace(rep.Trace, rep.TraceOverwritten)
	}
	if rep.Mismatches > 0 {
		fail("chaos: %d of %d blocks diverged from the software reference", rep.Mismatches, rep.Blocks)
	}
	if stuckAt > 0 && rep.Localized < len(rep.Planted) {
		fail("chaos: only %d of %d welded stuck-at ROM bits were localized", rep.Localized, len(rep.Planted))
	}
	fmt.Printf("all %d blocks bit-exact against the FIPS-197 reference\n", rep.Blocks)
}

// runEngine fans the blocks across a sharded pool of replicated cores and
// prints the per-shard and aggregate throughput report.
func runEngine(impl *rijndaelip.Implementation, key []byte, blocks [][]byte, ref interface {
	Encrypt(dst, src []byte)
	Decrypt(dst, src []byte)
}, shards, lanes int, dec bool, metricsAddr string, traceDump bool) {
	eng, err := impl.NewEngine(key, rijndaelip.EngineOptions{Shards: shards, MaxLanes: lanes})
	if err != nil {
		fail("engine: %v", err)
	}
	defer eng.Close()
	defer serveMetrics(metricsAddr, eng)()
	if lanes <= 0 || lanes > 64 {
		lanes = 64
	}
	fmt.Printf("engine: %d shards (each a fresh keyed simulation of %s, up to %d blocks per lane-packed submission)\n",
		shards, impl.Core.Design.Name, lanes)

	outs, err := eng.Process(context.Background(), blocks, !dec)
	if err != nil {
		fail("engine process: %v", err)
	}
	op := "encrypt"
	if dec {
		op = "decrypt"
	}
	mismatched := false
	want := make([]byte, 16)
	for i, out := range outs {
		if dec {
			ref.Decrypt(want, blocks[i])
		} else {
			ref.Encrypt(want, blocks[i])
		}
		status := "OK"
		if !bytes.Equal(out, want) {
			status = fmt.Sprintf("MISMATCH (reference %x)", want)
			mismatched = true
		}
		fmt.Printf("%s %x -> %x  %s\n", op, blocks[i], out, status)
	}

	st := eng.Stats()
	for _, ss := range st.Shards {
		fmt.Printf("shard %d: %d blocks in %d submissions, %d cycles, %.2f cycles/block, %d stolen\n",
			ss.Shard, ss.Blocks, ss.Submissions, ss.Cycles, ss.CyclesPerBlock, ss.Stolen)
	}
	if traceDump {
		if ring := eng.Trace(); ring != nil {
			dumpTrace(ring.Snapshot(), ring.Overwritten())
		}
	}
	fmt.Printf("aggregate: %d blocks in %d submissions (lane occupancy %.1f%%, %d lanes idle), makespan %d cycles, %.2f cycles/block, %.1f Mbps at %.2f ns clk (single core: %.1f Mbps)\n",
		st.Blocks, st.Submissions, 100*st.LaneOccupancy, st.WastedLanes,
		st.MaxShardCycles, st.AggregateCyclesPerBlock, eng.Throughput(),
		impl.ClockNS(), impl.ThroughputMbps())
	if mismatched {
		os.Exit(1)
	}
}
