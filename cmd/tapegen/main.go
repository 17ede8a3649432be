// Command tapegen writes the straight-line kernel of the shipped Encrypt
// netlist — the Encrypt core as rijndaelip.Build maps it for the Acex1K
// (asynchronous S-box ROMs, default mapper options), which every Encrypt
// engine shard runs — to kernel_encrypt.go in the current directory. It
// is run by go generate in internal/netlist:
//
//	go generate ./internal/netlist
//
// The netlist simulator binds the kernel only to a tape whose fingerprint
// matches, and TestKernelsUpToDate fails until the file is regenerated
// after a change to the core, the mapper or the tape compiler.
package main

import (
	"fmt"
	"os"

	"rijndaelip"
	"rijndaelip/internal/netlist"
)

func main() {
	impl, err := rijndaelip.Build(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapegen:", err)
		os.Exit(1)
	}
	src, err := netlist.KernelSource("encrypt", impl.Netlist.Raw())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapegen:", err)
		os.Exit(1)
	}
	if err := os.WriteFile("kernel_encrypt.go", src, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "tapegen:", err)
		os.Exit(1)
	}
}
