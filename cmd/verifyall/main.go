// Command verifyall runs the repository's entire verification stack over
// the paper's core and prints a certificate summary:
//
//  1. functional sign-off: FIPS-197 vectors through the cycle-accurate RTL
//     and through the technology-mapped netlist;
//  2. formal equivalence: every mapped obligation SAT-proved against its
//     RTL cone;
//  3. the latency theorem: data_ok timing proved for every key and
//     plaintext by bounded model checking with COI reduction;
//  4. the unbounded 5-cycle-round invariant by 1-induction;
//  5. an SEU campaign on the TMR-hardened netlist;
//  6. the static verification suite: design-rule lint and the compiled-tape
//     audit per core, plus the source-level analyzers over the module.
package main

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rijndaelip/internal/bfm"
	"rijndaelip/internal/bmc"
	"rijndaelip/internal/designlint"
	"rijndaelip/internal/faultcampaign"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/rijndael"
	"rijndaelip/internal/rtl"
	"rijndaelip/internal/srclint"
	"rijndaelip/internal/techmap"
	"rijndaelip/internal/tmr"
)

func step(name string, f func() (string, error)) {
	start := time.Now()
	detail, err := f()
	if err != nil {
		fmt.Printf("  FAIL  %-44s %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("  ok    %-44s %-28s %8s\n", name, detail, time.Since(start).Round(time.Millisecond))
}

func main() {
	full := flag.Bool("full", false, "also verify the decryptor (slower equivalence proofs)")
	flag.Parse()

	variants := []rijndael.Variant{rijndael.Encrypt}
	if *full {
		variants = append(variants, rijndael.Decrypt)
	}

	key, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	pt, _ := hex.DecodeString("3243f6a8885a308d313198a2e0370734")
	ct, _ := hex.DecodeString("3925841d02dc09fbdc118597196a0b32")

	for _, v := range variants {
		fmt.Printf("verification certificate: %s core (async EAB S-boxes)\n", v)
		core, err := rijndael.New(rijndael.Config{Variant: v, ROMStyle: rtl.ROMAsync})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := core.Design.SynthesizeTracked(techmap.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		nl := res.Netlist

		step("design-rule lint + static tape audit", func() (string, error) {
			dfs := designlint.CheckDesign(core.Design)
			if n := designlint.Errors(dfs); n != 0 {
				return "", fmt.Errorf("%d design finding(s), first: %s", n, dfs[0])
			}
			if nfs := designlint.CheckNetlist(nl); len(nfs) != 0 {
				return "", fmt.Errorf("%d netlist finding(s), first: %s", len(nfs), nfs[0])
			}
			if msgs := core.Design.AuditCompiled(); len(msgs) != 0 {
				return "", fmt.Errorf("rtl schedule audit: %s", msgs[0])
			}
			msgs, err := netlist.AuditCompiled(nl)
			if err != nil {
				return "", err
			}
			if len(msgs) != 0 {
				return "", fmt.Errorf("netlist tape audit: %s", msgs[0])
			}
			return fmt.Sprintf("%d rules clean, both tapes faithful", len(designlint.Rules())), nil
		})

		step("RTL simulation vs FIPS-197", func() (string, error) {
			drv := bfm.New(core)
			if _, err := drv.LoadKey(key); err != nil {
				return "", err
			}
			var got []byte
			var cycles int
			if v == rijndael.Decrypt {
				got, cycles, err = drv.Decrypt(ct)
			} else {
				got, cycles, err = drv.Encrypt(pt)
			}
			if err != nil {
				return "", err
			}
			want := pt
			if v != rijndael.Decrypt {
				want = ct
			}
			if !bytes.Equal(got, want) {
				return "", fmt.Errorf("vector mismatch: %x", got)
			}
			return fmt.Sprintf("Appendix B vector, %d cycles", cycles), nil
		})

		step("post-synthesis simulation vs FIPS-197", func() (string, error) {
			dev, err := faultcampaign.NewDevice(core, nl, false)
			if err != nil {
				return "", err
			}
			if err := dev.Key(key); err != nil {
				return "", err
			}
			var got []byte
			if v == rijndael.Decrypt {
				got, _, err = dev.Driver.Decrypt(ct)
			} else {
				got, _, err = dev.Driver.Encrypt(pt)
			}
			if err != nil {
				return "", err
			}
			want := pt
			if v != rijndael.Decrypt {
				want = ct
			}
			if !bytes.Equal(got, want) {
				return "", fmt.Errorf("vector mismatch: %x", got)
			}
			return fmt.Sprintf("%d LUTs, %d FFs, %d ROMs", nl.NumLUTs(), nl.NumFFs(), len(nl.ROMs)), nil
		})

		step("SAT equivalence: netlist == RTL", func() (string, error) {
			rep, err := res.Verify(500000)
			if err != nil {
				return "", err
			}
			if len(rep.Undecided) > 0 {
				return "", fmt.Errorf("%d obligations undecided", len(rep.Undecided))
			}
			return fmt.Sprintf("%d/%d obligations UNSAT", rep.Proved, rep.Obligations), nil
		})

		if v == rijndael.Encrypt {
			step("latency theorem (all keys, all data)", func() (string, error) {
				frames := make([]bmc.Frame, 54)
				for i := range frames {
					frames[i] = bmc.Frame{Fixed: map[string]uint64{
						"setup": 0, "wr_key": 0, "wr_data": 0,
					}}
				}
				frames[0].Fixed = map[string]uint64{"setup": 1, "wr_key": 1, "wr_data": 0}
				frames[1].Fixed = map[string]uint64{"setup": 0, "wr_key": 0, "wr_data": 1}
				var props []bmc.Prop
				for f := 2; f <= 51; f++ {
					props = append(props, bmc.Prop{Frame: f, Signal: "data_ok", Value: false})
				}
				props = append(props, bmc.Prop{Frame: 52, Signal: "data_ok", Value: true})
				c, err := bmc.New(nl, frames, props)
				if err != nil {
					return "", err
				}
				rs, err := c.Check(props, 2000000)
				if err != nil {
					return "", err
				}
				for _, r := range rs {
					if r.Verdict != bmc.Proved {
						return "", fmt.Errorf("%v: %v", r.Prop, r.Verdict)
					}
				}
				luts, ffs := c.COISize()
				return fmt.Sprintf("%d props proved (COI %d LUTs/%d FFs)", len(rs), luts, ffs), nil
			})

			step("5-cycle-round invariant (unbounded)", func() (string, error) {
				inv := bmc.Invariant{
					{{FF: "phase[0]", Value: false}, {FF: "phase[2]", Value: false}},
					{{FF: "phase[1]", Value: false}, {FF: "phase[2]", Value: false}},
				}
				verdict, err := bmc.CheckInductive(nl, inv, 1000000)
				if err != nil {
					return "", err
				}
				if verdict != bmc.Proved {
					return "", fmt.Errorf("verdict %v", verdict)
				}
				return "phase in 0..4 proved by 1-induction", nil
			})
		}

		step("SEU campaign on the TMR-hardened netlist", func() (string, error) {
			hard, st, err := tmr.Harden(nl)
			if err != nil {
				return "", err
			}
			ref := ct
			dir := true
			inBlock := pt
			if v == rijndael.Decrypt {
				ref, inBlock, dir = pt, ct, false
			}
			dev, err := faultcampaign.NewDevice(core, hard, false)
			if err != nil {
				return "", err
			}
			sim := dev.Primary
			rng := rand.New(rand.NewSource(16))
			const trials = 12
			for trial := 0; trial < trials; trial++ {
				if err := dev.Key(key); err != nil {
					return "", err
				}
				// Inject a random upset mid-transaction by driving manually.
				sim.SetInput("wr_data", 1)
				sim.SetInputBits("din", inBlock)
				if core.Config.Variant == rijndael.Both {
					if dir {
						sim.SetInput("encdec", 1)
					} else {
						sim.SetInput("encdec", 0)
					}
				}
				sim.Step()
				sim.SetInput("wr_data", 0)
				hit := rng.Intn(sim.NumFFs())
				at := rng.Intn(core.BlockLatency)
				for c := 0; c < core.BlockLatency; c++ {
					if c == at {
						sim.FlipFF(hit)
					}
					sim.Step()
				}
				sim.Eval()
				out, err := sim.OutputBits("dout")
				if err != nil {
					return "", err
				}
				if !bytes.Equal(out, ref) {
					return "", fmt.Errorf("upset in %s at cycle %d corrupted the output", sim.FFName(hit), at)
				}
			}
			return fmt.Sprintf("%d upsets tolerated (%d voters)", trials, st.VoterLUTs), nil
		})
		fmt.Println()
	}

	fmt.Println("static source analysis")
	step("source analyzers over the module", func() (string, error) {
		root, err := findModuleRoot()
		if err != nil {
			return "", err
		}
		fs, err := srclint.Run(root)
		if err != nil {
			return "", err
		}
		if len(fs) != 0 {
			return "", fmt.Errorf("%d finding(s), first: %s", len(fs), fs[0])
		}
		return fmt.Sprintf("%d analyzers clean", len(srclint.Rules())), nil
	})
	fmt.Println()
	fmt.Println("all checks passed")
}

// findModuleRoot walks up from the working directory to the go.mod, so the
// source analyzers work when verifyall is launched from a subdirectory.
// When no go.mod is above the working directory (a built verifyall run
// from elsewhere) it walks up from the directory this file was compiled
// in instead.
func findModuleRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if root, ok := moduleRootAbove(wd); ok {
		return root, nil
	}
	if _, src, _, ok := runtime.Caller(0); ok && filepath.IsAbs(src) {
		if root, ok := moduleRootAbove(filepath.Dir(src)); ok {
			return root, nil
		}
	}
	return "", fmt.Errorf("no go.mod above %s", wd)
}

// moduleRootAbove returns the nearest directory at or above dir that
// holds a go.mod.
func moduleRootAbove(dir string) (string, bool) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, true
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", false
		}
		dir = parent
	}
}
