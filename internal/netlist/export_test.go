package netlist

import (
	"strings"
	"testing"

	"rijndaelip/internal/gf256"
)

// exportDesign builds a small netlist exercising every exported construct:
// LUTs, plain and enabled FFs, async and sync ROMs, multi-bit ports.
func exportDesign(t *testing.T) *Netlist {
	t.Helper()
	nl := New("export_test")
	in := nl.AddInput("din", 8)
	en := nl.AddInput("en", 1)

	x := nl.NewNet()
	nl.AddLUT(LUT{Inputs: []NetID{in[0], in[1]}, Mask: 0b0110, Out: x, Name: "xor01"})
	q := nl.NewNet()
	nl.AddFF(FF{D: x, En: en[0], Q: q, Name: "acc"})
	q2 := nl.NewNet()
	nl.AddFF(FF{D: q, En: Invalid, Q: q2, Init: true, Name: "dly"})

	var rom ROM
	copy(rom.Addr[:], in)
	tbl := gf256.SBoxTable()
	copy(rom.Contents[:], tbl[:])
	romOut := nl.NewNets(8)
	copy(rom.Out[:], romOut)
	nl.AddROM(rom)

	var srom ROM
	srom.Sync = true
	copy(srom.Addr[:], in)
	copy(srom.Contents[:], tbl[:])
	sromOut := nl.NewNets(8)
	copy(srom.Out[:], sromOut)
	nl.AddROM(srom)

	nl.AddOutput("y", []NetID{q, q2, x})
	nl.AddOutput("sub", romOut)
	nl.AddOutput("ssub", sromOut)
	if err := nl.Build(); err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestWriteVerilog(t *testing.T) {
	nl := exportDesign(t)
	var sb strings.Builder
	if err := nl.WriteVerilog(&sb); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	for _, want := range []string{
		"module export_test",
		"input wire clk",
		"input wire [7:0] din",
		"output wire [2:0] y",
		"always @(posedge clk) if (",
		"case (rom0_addr)",
		"8'h00: rom0_data = 8'h63;", // S-box[0]
		"rom1_q <= rom1_data",       // sync ROM register
		"endmodule",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("Verilog missing %q", want)
		}
	}
	// Every LUT mask=0110 over 2 inputs: two minterms.
	if !strings.Contains(v, "(") || !strings.Contains(v, "|") {
		t.Error("LUT expression missing")
	}
}

func TestWriteBLIF(t *testing.T) {
	nl := exportDesign(t)
	var sb strings.Builder
	if err := nl.WriteBLIF(&sb); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	for _, want := range []string{
		".model export_test",
		".inputs",
		".outputs",
		".latch",
		"re clk 1", // init-1 latch
		"_dmux",    // enable expansion
		".end",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("BLIF missing %q", want)
		}
	}
	// The async S-box ROM bit 0 table should contain 256/2ish minterm rows;
	// sanity: the row for address 0x01 (S-box 0x7c has bit0=0) absent, the
	// row for 0x00 (0x63 has bit0=1) present as "00000000 1".
	if !strings.Contains(v, "00000000 1") {
		t.Error("ROM minterm for address 0 missing")
	}
	// Each .names block is well-formed: no line has a bare '2'.
	for _, line := range strings.Split(v, "\n") {
		if strings.ContainsAny(line, "23456789") && strings.HasSuffix(line, " 1") &&
			!strings.HasPrefix(line, ".") {
			t.Errorf("suspicious truth-table row: %q", line)
		}
	}
}

func TestExportConstLUT(t *testing.T) {
	nl := New("consts")
	a := nl.AddInput("a", 1)
	z := nl.NewNet()
	nl.AddLUT(LUT{Inputs: []NetID{a[0]}, Mask: 0b00, Out: z}) // constant 0
	o := nl.NewNet()
	nl.AddLUT(LUT{Inputs: []NetID{a[0]}, Mask: 0b11, Out: o}) // constant 1
	nl.AddOutput("z", []NetID{z, o})
	var sb strings.Builder
	if err := nl.WriteVerilog(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1'b0;") || !strings.Contains(sb.String(), "1'b1;") {
		t.Error("constant LUTs not simplified")
	}
}

func TestExportRejectsBroken(t *testing.T) {
	nl := New("bad")
	ghost := nl.NewNet()
	nl.AddOutput("y", []NetID{ghost})
	var sb strings.Builder
	if err := nl.WriteVerilog(&sb); err == nil {
		t.Error("Verilog export of broken netlist accepted")
	}
	if err := nl.WriteBLIF(&sb); err == nil {
		t.Error("BLIF export of broken netlist accepted")
	}
}

// Hooks for the external netlist_test package, which builds the shipped
// cores (their packages import this one).

// NewTapeSimulator is NewSimulator without the generated kernel: it sweeps
// the compiled tape even when a kernel is bound to it.
func NewTapeSimulator(nl *Netlist) (*Simulator, error) { return newSimulator(nl, false) }

// NewReferenceSimulator is the test-only reference simulator.
var NewReferenceSimulator = newReferenceSimulator

// RandomNetlist is the differential fuzz suite's netlist generator.
var RandomNetlist = randomNetlist

// CompileTape compiles a built netlist's tape afresh, without caching it.
func CompileTape(nl *Netlist) { compileTape(nl) }

// KernelBound reports whether the simulator sweeps through a generated
// kernel.
func (s *Simulator) KernelBound() bool { return s.kernel != nil }

// StateWords returns the simulator's flip-flop lane words.
func (s *Simulator) StateWords() []uint64 { return s.w.Q }

// AuditKernel runs AuditCompiled and also reports whether a generated
// kernel is bound to the netlist's tape.
func AuditKernel(nl *Netlist) ([]string, bool, error) {
	msgs, err := AuditCompiled(nl)
	if err != nil {
		return nil, false, err
	}
	c, err := nl.compiledSched()
	return msgs, err == nil && c.kernel != nil, err
}
