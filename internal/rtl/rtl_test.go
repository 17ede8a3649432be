package rtl

import (
	"bytes"
	"math/rand"
	"testing"

	"rijndaelip/internal/gf256"
	"rijndaelip/internal/logic"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/techmap"
)

// buildCounter builds an 8-bit counter with enable and a done flag at 0xFF.
func buildCounter(t *testing.T) *Design {
	t.Helper()
	b := NewBuilder("counter")
	g := b.Logic()
	en := b.Input("en", 1)
	cnt := b.Reg("cnt", 8)
	// Increment: ripple-carry +1.
	carry := logic.True
	next := make(Bus, 8)
	for i := 0; i < 8; i++ {
		next[i] = g.Xor(cnt.Q[i], carry)
		carry = g.And(carry, cnt.Q[i])
	}
	cnt.SetNext(next, en[0])
	b.Output("value", cnt.Q)
	b.Output("done", Bus{g.Equal(cnt.Q, Const(8, 0xFF))})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCounterSim(t *testing.T) {
	d := buildCounter(t)
	sim := d.NewSimulator()
	sim.SetInput("en", 1)
	for i := 0; i < 300; i++ {
		sim.Eval()
		v, err := sim.Output("value")
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(i%256) {
			t.Fatalf("cycle %d: counter = %d, want %d", i, v, i%256)
		}
		done, _ := sim.Output("done")
		if (done == 1) != (i%256 == 255) {
			t.Fatalf("cycle %d: done = %d", i, done)
		}
		sim.Step()
	}
	if sim.Cycle() != 300 {
		t.Errorf("Cycle = %d", sim.Cycle())
	}
	// Disable and verify hold.
	sim.SetInput("en", 0)
	sim.Eval()
	before, _ := sim.Output("value")
	sim.Step()
	sim.Eval()
	after, _ := sim.Output("value")
	if before != after {
		t.Error("counter advanced while disabled")
	}
}

func TestCounterSynthesisMatchesSim(t *testing.T) {
	d := buildCounter(t)
	nl, err := d.Synthesize(techmap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nsim, err := netlist.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	dsim := d.NewSimulator()
	rng := rand.New(rand.NewSource(5))
	for cycle := 0; cycle < 600; cycle++ {
		en := uint64(rng.Intn(2))
		dsim.SetInput("en", en)
		nsim.SetInput("en", en)
		dsim.Eval()
		nsim.Eval()
		dv, _ := dsim.Output("value")
		nv, _ := nsim.Output("value")
		if dv != nv {
			t.Fatalf("cycle %d: design %d, netlist %d", cycle, dv, nv)
		}
		dsim.Step()
		nsim.Step()
	}
}

func TestUnconnectedRegisterRejected(t *testing.T) {
	b := NewBuilder("bad")
	b.Reg("r", 4)
	if _, err := b.Build(); err == nil {
		t.Fatal("unconnected register accepted")
	}
}

func TestDuplicatePortRejected(t *testing.T) {
	b := NewBuilder("dup")
	in := b.Input("x", 1)
	b.Output("x", in)
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate port name accepted")
	}
}

func TestDoubleConnectPanics(t *testing.T) {
	b := NewBuilder("dc")
	r := b.Reg("r", 1)
	r.SetNext(Bus{logic.True}, logic.True)
	defer func() {
		if recover() == nil {
			t.Fatal("double SetNext did not panic")
		}
	}()
	r.SetNext(Bus{logic.False}, logic.True)
}

// romDesign builds a pass-through S-box lookup in the given style.
func romDesign(t *testing.T, style ROMStyle) *Design {
	t.Helper()
	b := NewBuilder("sbox_" + style.String())
	addr := b.Input("addr", 8)
	data := b.ROM("sbox", addr, gf256.SBoxTable(), style)
	b.Output("data", data)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestROMStyles(t *testing.T) {
	for _, style := range []ROMStyle{ROMAsync, ROMLogic} {
		t.Run(style.String(), func(t *testing.T) {
			d := romDesign(t, style)
			sim := d.NewSimulator()
			for a := 0; a < 256; a++ {
				sim.SetInput("addr", uint64(a))
				sim.Eval()
				v, _ := sim.Output("data")
				if byte(v) != gf256.SBox(byte(a)) {
					t.Fatalf("%s ROM[%#x] = %#x, want %#x", style, a, v, gf256.SBox(byte(a)))
				}
			}
		})
	}
}

func TestROMSyncOneCycleLate(t *testing.T) {
	d := romDesign(t, ROMSync)
	sim := d.NewSimulator()
	sim.SetInput("addr", 0x53)
	sim.Step()
	sim.SetInput("addr", 0x10)
	sim.Eval()
	v, _ := sim.Output("data")
	if byte(v) != gf256.SBox(0x53) {
		t.Fatalf("sync ROM = %#x, want previous-address read %#x", v, gf256.SBox(0x53))
	}
}

func TestROMSynthesisEquivalence(t *testing.T) {
	for _, style := range []ROMStyle{ROMAsync, ROMLogic, ROMSync} {
		t.Run(style.String(), func(t *testing.T) {
			d := romDesign(t, style)
			nl, err := d.Synthesize(techmap.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if style == ROMLogic && len(nl.ROMs) != 0 {
				t.Fatal("ROMLogic left a ROM macro in the netlist")
			}
			if style != ROMLogic && len(nl.ROMs) != 1 {
				t.Fatal("ROM macro missing from netlist")
			}
			nsim, err := netlist.NewSimulator(nl)
			if err != nil {
				t.Fatal(err)
			}
			dsim := d.NewSimulator()
			rng := rand.New(rand.NewSource(9))
			for trial := 0; trial < 100; trial++ {
				a := uint64(rng.Intn(256))
				dsim.SetInput("addr", a)
				nsim.SetInput("addr", a)
				dsim.Eval()
				nsim.Eval()
				dv, _ := dsim.Output("data")
				nv, _ := nsim.Output("data")
				if dv != nv {
					t.Fatalf("trial %d: design %#x, netlist %#x", trial, dv, nv)
				}
				dsim.Step()
				nsim.Step()
			}
		})
	}
}

func TestChainedROMs(t *testing.T) {
	// ROM -> ROM composition: InvSBox(SBox(a)) == a, exercising two async
	// ROM dependency levels.
	b := NewBuilder("chain")
	addr := b.Input("addr", 8)
	mid := b.ROM("sbox", addr, gf256.SBoxTable(), ROMAsync)
	out := b.ROM("inv", mid, gf256.InvSBoxTable(), ROMAsync)
	b.Output("data", out)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d.maxROMLevel != 1 {
		t.Fatalf("maxROMLevel = %d, want 1", d.maxROMLevel)
	}
	sim := d.NewSimulator()
	for a := 0; a < 256; a++ {
		sim.SetInput("addr", uint64(a))
		sim.Eval()
		v, _ := sim.Output("data")
		if byte(v) != byte(a) {
			t.Fatalf("InvSBox(SBox(%#x)) = %#x", a, v)
		}
	}
}

func TestStats(t *testing.T) {
	d := buildCounter(t)
	st := d.Stats()
	if st.RegBits != 8 || st.Inputs != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.AndNodes == 0 || st.Depth == 0 {
		t.Errorf("stats missing logic: %+v", st)
	}
}

func TestRegInitAndReset(t *testing.T) {
	b := NewBuilder("init")
	r := b.Reg("r", 4)
	r.SetInit([]bool{true, false, true, false})
	r.SetNext(Const(4, 0), logic.True)
	b.Output("q", r.Q)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := d.NewSimulator()
	sim.Eval()
	if v, _ := sim.Output("q"); v != 0b0101 {
		t.Fatalf("init value = %04b", v)
	}
	sim.Step()
	sim.Eval()
	if v, _ := sim.Output("q"); v != 0 {
		t.Fatal("register did not load")
	}
	sim.Reset()
	sim.Eval()
	if v, _ := sim.Output("q"); v != 0b0101 {
		t.Fatal("Reset did not restore init")
	}
	if rv, ok := sim.RegValue("r"); !ok || rv[0] != 0b0101 {
		t.Errorf("RegValue = %v %v", rv, ok)
	}
}

func TestBusHelpers(t *testing.T) {
	a := Const(8, 0xAB)
	if len(Cat(a, a)) != 16 {
		t.Error("Cat width")
	}
	s := Slice(a, 4, 4)
	if len(s) != 4 {
		t.Error("Slice width")
	}
	// RotateByteLeft on a 32-bit constant: bytes [b0,b1,b2,b3] ->
	// [b1,b2,b3,b0].
	w := Const(32, 0x04030201) // byte0=0x01, byte1=0x02, byte2=0x03, byte3=0x04
	r := RotateByteLeft(w)
	var got uint64
	for i, l := range r {
		if l == logic.True {
			got |= 1 << uint(i)
		}
	}
	if got != 0x01040302 {
		t.Errorf("RotateByteLeft = %#x, want 0x01040302", got)
	}
}

func TestSetInputErrors(t *testing.T) {
	d := buildCounter(t)
	sim := d.NewSimulator()
	if err := sim.SetInput("nope", 0); err == nil {
		t.Error("unknown input accepted")
	}
	if _, err := sim.Output("nope"); err == nil {
		t.Error("unknown output accepted")
	}
	if err := sim.SetInputBits("nope", nil); err == nil {
		t.Error("unknown input accepted by SetInputBits")
	}
	if err := sim.SetInputBits("en", []byte{}); err == nil {
		t.Error("short bits accepted")
	}
}

func TestWideBusBits(t *testing.T) {
	b := NewBuilder("wide")
	in := b.Input("din", 128)
	r := b.Reg("buf", 128)
	r.SetNext(in, logic.True)
	b.Output("dout", r.Q)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := d.NewSimulator()
	data := make([]byte, 16)
	for i := range data {
		data[i] = byte(0xC3 ^ i*29)
	}
	if err := sim.SetInputBits("din", data); err != nil {
		t.Fatal(err)
	}
	sim.Step()
	sim.Eval()
	got, err := sim.OutputBits("dout")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("wide register: %x != %x", got, data)
	}
	if _, err := sim.Output("dout"); err == nil {
		t.Error("Output on wide port should error")
	}
	if err := sim.SetInput("din", 1); err == nil {
		t.Error("SetInput on wide port should error")
	}
}
