// Command lint runs the repository's full static verification suite and
// exits nonzero on any finding:
//
//  1. design-rule lint (internal/designlint) over the three paper cores —
//     encrypt-only, decrypt-only and shared-datapath — and the three
//     AES-256 extension cores, at both the RTL/AIG level and the
//     mapped-netlist level;
//  2. the static compiled-tape audit (logic/netlist/rtl AuditCompiled) of
//     the same six cores, proving without execution that both simulators'
//     instruction tapes are faithful linearizations;
//  3. source-level analyzers (internal/srclint) over every non-test
//     package in the module.
//
// Info-severity design findings (for example dead AIG cones left behind by
// structural hashing) are advisory: printed with -v, never fatal.
//
// Usage:
//
//	lint [-root dir] [-v]
package main

import (
	"flag"
	"fmt"
	"os"

	"rijndaelip/internal/designlint"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/rijndael"
	"rijndaelip/internal/rtl"
	"rijndaelip/internal/srclint"
	"rijndaelip/internal/techmap"
)

var variants = []struct {
	name string
	v    rijndael.Variant
}{
	{"enc", rijndael.Encrypt},
	{"dec", rijndael.Decrypt},
	{"encdec", rijndael.Both},
}

// keySizes elaborates each variant at both key sizes: the paper's AES-128
// cores and the AES-256 extension cores, all with asynchronous S-box ROMs.
var keySizes = []struct {
	prefix string
	build  func(rijndael.Variant) (*rijndael.Core, error)
}{
	{"", func(v rijndael.Variant) (*rijndael.Core, error) {
		return rijndael.New(rijndael.Config{Variant: v, ROMStyle: rtl.ROMAsync})
	}},
	{"aes256-", func(v rijndael.Variant) (*rijndael.Core, error) {
		return rijndael.New256(v, rtl.ROMAsync)
	}},
}

func main() {
	root := flag.String("root", ".", "module root for the source-level analyzers")
	verbose := flag.Bool("v", false, "print advisory (Info) findings and structure reports")
	flag.Parse()

	failures := 0

	fmt.Printf("design-rule lint: %d rules, %d source analyzers\n",
		len(designlint.Rules()), len(srclint.Rules()))

	for _, ks := range keySizes {
		for _, vt := range variants {
			name := ks.prefix + vt.name
			core, err := ks.build(vt.v)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lint: %s: elaborate: %v\n", name, err)
				os.Exit(2)
			}
			nl, err := core.Design.Synthesize(techmap.Options{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "lint: %s: synthesize: %v\n", name, err)
				os.Exit(2)
			}
			failures += reportDesign(name, core.Design, nl, *verbose)
		}
	}

	fmt.Printf("source lint: analyzing module at %s\n", *root)
	sfs, err := srclint.Run(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lint: source analysis: %v\n", err)
		os.Exit(2)
	}
	for _, f := range sfs {
		fmt.Println("  " + f.String())
	}
	failures += len(sfs)

	if failures > 0 {
		fmt.Printf("lint: %d finding(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("lint: clean")
}

// reportDesign lints one elaborated core and its mapped netlist, audits both
// compiled tapes, and returns the number of fatal findings.
func reportDesign(name string, d *rtl.Design, nl *netlist.Netlist, verbose bool) int {
	failures := 0
	emit := func(prefix string, fs []designlint.Finding) {
		for _, f := range fs {
			if f.Severity == designlint.Info && !verbose {
				continue
			}
			fmt.Printf("  %s: %s\n", prefix, f)
		}
	}

	dfs := designlint.CheckDesign(d)
	emit(name, dfs)
	failures += designlint.Errors(dfs)

	nfs := designlint.CheckNetlist(nl)
	emit(name, nfs)
	failures += designlint.Errors(nfs)

	for _, msg := range d.AuditCompiled() {
		fmt.Printf("  %s: tape-audit(rtl): %s\n", name, msg)
		failures++
	}
	nmsgs, err := netlist.AuditCompiled(nl)
	if err != nil {
		fmt.Printf("  %s: tape-audit(netlist): netlist does not build: %v\n", name, err)
		failures++
	}
	for _, msg := range nmsgs {
		fmt.Printf("  %s: tape-audit(netlist): %s\n", name, msg)
		failures++
	}

	if verbose {
		fmt.Printf("  %s\n", designlint.ReportDesign(d))
		fmt.Printf("  %s\n", designlint.ReportNetlist(nl))
	}
	return failures
}
