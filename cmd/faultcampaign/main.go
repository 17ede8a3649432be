// Command faultcampaign runs the deterministic SEU-injection campaign over
// the mapped Rijndael core in three hardening configurations — plain, TMR
// (internal/tmr), and self-checking lockstep (internal/faultcampaign) — on
// both of the paper's devices, and prints a coverage-vs-area table: what
// each protection style costs in logic cells and what it buys in
// masked/detected fault coverage. This quantifies the §6 pointer to the
// radiation-tolerant version of the IP.
//
// The campaign is seeded: identical flags reproduce identical fault lists,
// so coverage numbers are comparable across configurations and runs.
//
// The plain configuration additionally classifies every fault as recovered
// or persistent through the triage retry (the same strike-free re-run the
// engine supervisor uses in place), and a rom-stuck row welds EDAC-masked
// stuck-at bits into the S-box ROMs — the fault class only the engine's
// ROM scrub can find.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"rijndaelip"
	"rijndaelip/internal/edac"
	"rijndaelip/internal/faultcampaign"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/obs"
	"rijndaelip/internal/report"
)

// progress is the campaign's live observability surface: per-row outcome
// counters keyed by configuration and device, served over /metrics,
// /debug/vars and /debug/pprof while the (potentially hours-long, with
// -exhaustive) sweep runs.
type progress struct {
	reg  *obs.Registry
	rows *obs.Counter
}

func newProgress() *progress {
	p := &progress{reg: obs.NewRegistry()}
	p.rows = p.reg.Counter("faultcampaign_rows_total")
	return p
}

// record publishes one finished campaign row's outcome counts as
// constant counters and bumps the completed-row counter.
func (p *progress) record(config, device string, res *faultcampaign.Result) {
	l := []string{"config", config, "device", device}
	constant := func(family string, v uint64) {
		p.reg.CounterFunc(family, func() uint64 { return v }, l...)
	}
	constant("faultcampaign_trials_total", uint64(len(res.Trials)))
	constant("faultcampaign_masked_total", uint64(res.Count(faultcampaign.SilentCorrect)))
	constant("faultcampaign_detected_total", uint64(res.Count(faultcampaign.Detected)))
	constant("faultcampaign_corrupted_total", uint64(res.Count(faultcampaign.Corrupted)))
	constant("faultcampaign_hung_total", uint64(res.Count(faultcampaign.Hung)))
	constant("faultcampaign_recovered_total", uint64(res.Recovered))
	constant("faultcampaign_persistent_total", uint64(res.Persistent))
	p.rows.Add(1)
}

// serve exposes the progress registry on addr (plus pprof/expvar) for the
// duration of the campaign; the returned func shuts the listener down.
func (p *progress) serve(addr string) func() {
	if addr == "" {
		return func() {}
	}
	obs.PublishExpvar("faultcampaign", p.reg)
	srv, bound, err := obs.Serve(addr, p.reg, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("metrics: serving http://%s/metrics (plus /debug/vars, /debug/pprof)\n\n", bound)
	return func() { _ = srv.Close() }
}

func main() {
	trials := flag.Int("trials", 150, "sampled faults per configuration")
	seed := flag.Int64("seed", 2003, "campaign RNG seed")
	multibit := flag.Int("multibit", 1, "flip-flops struck per upset (1 = SEU, >1 = MBU)")
	device := flag.String("device", "all", "device to sweep: all, acex, cyclone")
	exhaustive := flag.Bool("exhaustive", false, "sweep every (flip-flop x cycle) fault instead of sampling")
	watchdog := flag.Int("watchdog", 0, "watchdog budget in cycles (0 = driver default)")
	romStuck := flag.Int("romstuck", 4, "welded stuck-at ROM bits per device for the rom-stuck row (0 disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve campaign progress on /metrics, /debug/vars and /debug/pprof at this address while the sweep runs (e.g. :9100)")
	flag.Parse()

	prog := newProgress()
	defer prog.serve(*metricsAddr)()

	type target struct {
		name string
		dev  rijndaelip.Device
	}
	var targets []target
	switch *device {
	case "all":
		targets = []target{{"Acex1K", rijndaelip.Acex1K()}, {"Cyclone", rijndaelip.Cyclone()}}
	case "acex":
		targets = []target{{"Acex1K", rijndaelip.Acex1K()}}
	case "cyclone":
		targets = []target{{"Cyclone", rijndaelip.Cyclone()}}
	default:
		fmt.Fprintf(os.Stderr, "faultcampaign: unknown device %q\n", *device)
		os.Exit(2)
	}

	var rows []report.FaultRow
	for _, tg := range targets {
		impl, err := rijndaelip.Build(rijndaelip.Encrypt, tg.dev)
		if err != nil {
			fatal(err)
		}
		hard, err := impl.Harden()
		if err != nil {
			fatal(err)
		}
		base := faultcampaign.Config{
			Core:     impl.Core,
			Trials:   *trials,
			Seed:     *seed,
			MultiBit: *multibit,
			Watchdog: *watchdog,
		}
		// The plain row carries the transient-vs-persistent breakdown:
		// classification re-runs each struck transaction once, exactly like
		// the engine supervisor's in-place retry.
		plainCfg := with(base, impl.Netlist.Raw(), false)
		plainCfg.ClassifyPersistence = true
		configs := []struct {
			name     string
			cfg      faultcampaign.Config
			lcs, ffs int
		}{
			{"plain", plainCfg, impl.Fit.LogicCells, impl.Netlist.FFs},
			{"tmr", with(base, hard.Netlist, false), hard.Fit.LogicCells, len(hard.Netlist.FFs)},
			// Lockstep duplicates the whole core plus the output
			// comparator; 2x the plain fit is the area floor.
			{"lockstep", with(base, impl.Netlist.Raw(), true), 2 * impl.Fit.LogicCells, impl.Netlist.FFs},
		}
		for _, c := range configs {
			res, err := campaign(c.cfg, *exhaustive)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-8s %-9s %v\n", tg.name, c.name+":", res)
			prog.record(c.name, tg.name, res)
			rows = append(rows, faultRow(c.name, tg.name, c.lcs, c.ffs, res))
		}
		if *romStuck > 0 {
			faults := stuckFaults(impl.Netlist.Raw(), *seed, *romStuck)
			if faults == nil {
				// Logic-mapped S-boxes (Cyclone): no ROM storage to weld.
				fmt.Printf("%-8s %-9s no ROM storage (S-boxes in logic cells), row skipped\n", tg.name, "rom-stuck:")
				continue
			}
			res, err := faultcampaign.RunStuckAt(with(base, impl.Netlist.Raw(), false), faults)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-8s %-9s %v\n", tg.name, "rom-stuck:", res)
			prog.record("rom-stuck", tg.name, res)
			rows = append(rows, faultRow("rom-stuck", tg.name, impl.Fit.LogicCells, impl.Netlist.FFs, res))
		}
	}

	fmt.Println()
	fmt.Println("Fault-injection campaign — coverage vs area (seeded SEU sweep, encrypt core)")
	fmt.Println()
	fmt.Print(report.RenderFaultTable(rows))
	fmt.Println()
	fmt.Println("(lockstep LCs are the dual-core floor: two replicas plus the cycle comparator)")
	fmt.Println()

	if violations := report.FaultShapeChecks(rows); len(violations) > 0 {
		fmt.Println("shape checks: VIOLATIONS")
		for _, v := range violations {
			fmt.Println("  -", v)
		}
		os.Exit(1)
	}
	fmt.Println("shape checks: TMR strictly improves masked coverage; lockstep eliminates silent corruption")
}

func with(base faultcampaign.Config, nl *netlist.Netlist, lockstep bool) faultcampaign.Config {
	base.Netlist = nl
	base.Lockstep = lockstep
	return base
}

func faultRow(config, device string, lcs, ffs int, res *faultcampaign.Result) report.FaultRow {
	return report.FaultRow{
		Config: config, Device: device,
		LogicCells: lcs, FFs: ffs,
		Trials:     len(res.Trials),
		Masked:     res.Count(faultcampaign.SilentCorrect),
		Detected:   res.Count(faultcampaign.Detected),
		Corrupted:  res.Count(faultcampaign.Corrupted),
		Hung:       res.Count(faultcampaign.Hung),
		Classified: res.Classified,
		Recovered:  res.Recovered,
		Persistent: res.Persistent,
	}
}

// stuckFaults derives a seeded list of distinct welded ROM bits for the
// rom-stuck campaign row. Returns nil when the netlist maps its S-boxes
// to logic and has no ROM storage to weld.
func stuckFaults(nl *netlist.Netlist, seed int64, n int) []faultcampaign.ROMFault {
	if len(nl.ROMs) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[faultcampaign.ROMFault]bool{}
	var faults []faultcampaign.ROMFault
	for len(faults) < n {
		f := faultcampaign.ROMFault{
			ROM:  rng.Intn(len(nl.ROMs)),
			Word: rng.Intn(edac.Words),
			Bit:  rng.Intn(edac.CodeBits),
		}
		if seen[f] {
			continue
		}
		seen[f] = true
		faults = append(faults, f)
	}
	return faults
}

func campaign(cfg faultcampaign.Config, exhaustive bool) (*faultcampaign.Result, error) {
	if exhaustive {
		return faultcampaign.Sweep(cfg)
	}
	return faultcampaign.Run(cfg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultcampaign:", err)
	os.Exit(1)
}
