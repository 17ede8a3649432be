package lanesim

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rijndaelip/internal/edac"
	"rijndaelip/internal/logic"
)

// recTape records the ranges a machine sweeps; it computes nothing, so the
// toy layout's outputs are whatever the machine presents.
type recTape struct{ ranges [][2]int }

func (t *recTape) EvalRange(from, to int, _, _ []uint64) {
	t.ranges = append(t.ranges, [2]int{from, to})
}

// toyLayout is a one-array machine (NumSrc 0): an 8-bit input port "a"
// (words 2..9) addresses an asynchronous ROM whose data lands on words
// 10..17 and is the output port "q"; a one-bit register "r" (presented at
// word 18) loads q[0] under constant 1 (the inverted word 0). The tape
// has positions [0,8) and the ROM sits at position 4.
func toyLayout() *Layout {
	contents := new([256]byte)
	for i := range contents {
		contents[i] = byte(i*7 + 3)
	}
	rom := ROM{Name: "rom", Contents: contents}
	q := make([]Lit, 8)
	for bit := range rom.Addr {
		rom.Addr[bit] = Lit(2+bit) << 1
		rom.Out[bit] = int32(10 + bit)
		q[bit] = Lit(10+bit) << 1
	}
	return &Layout{
		Pkg:     "toy",
		NumVals: 20,
		Inputs:  map[string][]int32{"a": {2, 3, 4, 5, 6, 7, 8, 9}},
		Outputs: map[string][]Lit{"q": q},
		Regs:    map[string][]int32{"r": {0}},
		Present: []int32{18},
		Next:    []Lit{10 << 1},
		Init:    []bool{true},
		Groups:  []Group{{En: 1, Lo: 0, Hi: 1}},
		ROMs:    []ROM{rom},
		Segs:    []Seg{{ROM: 0, Stop: 4, Resume: 5}},
		End:     8,
	}
}

// TestMachineSweepsSkipsAndResumes pins the segmented Eval's schedule: a
// dirty pass sweeps around the ROM, a quiescent pass sweeps nothing, a
// rewrite of an unchanged input stays quiescent, and moved ROM read data
// on a quiescent pass resumes the sweep right after the ROM. Every pass
// over the faulty store gathers it exactly once.
func TestMachineSweepsSkipsAndResumes(t *testing.T) {
	lay := toyLayout()
	if msgs := lay.Audit(); len(msgs) != 0 {
		t.Fatalf("toy layout does not audit clean: %v", msgs)
	}
	tape := &recTape{}
	m, w := New(lay, tape)
	rom := m.ROMStores()[0]
	eval := func(what string, want ...[2]int) {
		t.Helper()
		tape.ranges = nil
		before := rom.Stats().UncorrectableReads
		m.Eval()
		if len(tape.ranges) != len(want) {
			t.Fatalf("%s: swept %v, want %v", what, tape.ranges, want)
		}
		for i := range want {
			if tape.ranges[i] != want[i] {
				t.Fatalf("%s: swept %v, want %v", what, tape.ranges, want)
			}
		}
		if rom.FaultyWords() > 0 {
			// A faulty store counts every lane's read: one gather is 64.
			if n := rom.Stats().UncorrectableReads - before; n != 64 {
				t.Fatalf("%s: %d uncorrectable lane reads, want one gather's 64", what, n)
			}
		}
	}
	output := func(want byte) {
		t.Helper()
		if v, err := m.Output("q"); err != nil || v != uint64(want) {
			t.Fatalf("q = %#x, %v; want %#x", v, err, want)
		}
	}

	eval("construction", [2]int{0, 4}, [2]int{5, 8})
	output(lay.ROMs[0].Contents[0])
	eval("quiescent")
	if err := m.SetInput("a", 5); err != nil {
		t.Fatal(err)
	}
	eval("stimulus", [2]int{0, 4}, [2]int{5, 8})
	output(lay.ROMs[0].Contents[5])
	if err := m.SetInput("a", 5); err != nil {
		t.Fatal(err)
	}
	eval("rewritten stimulus")

	rom.FlipBit(5, 3) // data bits d0 and d1: uncorrectable, raw data moves
	rom.FlipBit(5, 5)
	eval("moved ROM data", [2]int{5, 8})
	output(lay.ROMs[0].Contents[5] ^ 0b11)
	eval("quiescent after damage")

	// Step latches q[0] into r and counts the cycle; Reset restores init.
	m.Step()
	if got, ok := m.RegValue("r"); !ok || got[0] != (lay.ROMs[0].Contents[5]^1)&1 || m.Cycle() != 1 {
		t.Fatalf("after Step: r = %v (%v), cycle %d", got, ok, m.Cycle())
	}
	m.Reset()
	if got, _ := m.RegValue("r"); got[0] != 1 || m.Cycle() != 0 || !w.Dirty {
		t.Fatalf("after Reset: r = %v, cycle %d, dirty %v", got, m.Cycle(), w.Dirty)
	}
}

// TestMachineWriteTracksStateAndSkipsCleanGathers pins the two halves of
// a free quiescent Eval. A clean store whose token has not moved is
// neither gathered nor re-presented: a presented ROM word scribbled over
// stays scribbled. A latch that loads what the register already holds
// leaves the next Eval quiescent; one that moves it, or a WriteState,
// makes it dirty and presents the new state. A clean alias moves the read
// data without faulting the store, and its token alone makes the next
// quiescent Eval gather and resume after the ROM.
func TestMachineWriteTracksStateAndSkipsCleanGathers(t *testing.T) {
	lay := toyLayout()
	tape := &recTape{}
	m, w := New(lay, tape)
	rom := m.ROMStores()[0]
	eval := func(what string, want ...[2]int) {
		t.Helper()
		tape.ranges = nil
		m.Eval()
		if !slices.Equal(tape.ranges, want) {
			t.Fatalf("%s: swept %v, want %v", what, tape.ranges, want)
		}
	}
	full := [][2]int{{0, 4}, {5, 8}}

	eval("construction", full...)
	w.Vals[10] ^= 1 // the presented ROM data bit 0, on lane 0
	eval("quiescent over a clean store")
	if w.Vals[10]&1 == uint64(lay.ROMs[0].Contents[0])&1 {
		t.Fatal("a quiescent Eval re-presented a clean store's unchanged data")
	}
	w.Vals[10] ^= 1

	m.Step() // r holds 1 and loads q[0] = Contents[0]&1 = 1: nothing moves
	if w.Dirty {
		t.Fatal("a latch that moved no word set Dirty")
	}
	eval("after a still latch")

	m.WriteState(func(q []uint64, _ [][8]uint64) { q[0] = 0 })
	eval("after WriteState", full...)
	if w.Src[18] != 0 {
		t.Fatalf("WriteState's word not presented: %#x", w.Src[18])
	}
	m.Step() // r loads 1 again: the latch moved it
	if !w.Dirty {
		t.Fatal("a latch that moved a word left Dirty clear")
	}
	eval("after a moving latch", full...)

	alias := edac.Encode(1)
	for bit := 0; bit < edac.CodeBits; bit++ {
		if alias>>uint(bit)&1 != 0 {
			rom.FlipBit(0, bit)
		}
	}
	if rom.FaultyWords() != 0 {
		t.Fatal("the alias faulted the store")
	}
	eval("after a clean alias", [2]int{5, 8})
	if v, err := m.Output("q"); err != nil || v != uint64(lay.ROMs[0].Contents[0]^1) {
		t.Fatalf("q = %#x, %v after a clean alias; want %#x", v, err, lay.ROMs[0].Contents[0]^1)
	}
	eval("quiescent after the alias")
}

// TestShareGathers: a twin takes its primary's last Gather of a ROM only
// while it presents the same addresses, both stores show the golden view
// and the primary's store still shows the token read before that Gather.
// Each case flips one lane of the primary's recorded data after the
// primary's Eval, so the twin's presented data shows whether it shared.
func TestShareGathers(t *testing.T) {
	lay := toyLayout()
	p, pw := New(lay, &recTape{})
	m, w := New(lay, &recTape{})
	m.ShareGathers(p)
	if p.recs == nil || m.recs != nil {
		t.Fatal("records must be kept by the primary only")
	}
	alias := func(r *edac.ROM, word int) {
		for bit, code := 0, edac.Encode(1); bit < edac.CodeBits; bit++ {
			if code>>uint(bit)&1 != 0 {
				r.FlipBit(word, bit)
			}
		}
	}
	read := func(what string, pa, ma uint64, between func(), shared bool) {
		t.Helper()
		if err := p.SetInput("a", pa); err != nil {
			t.Fatal(err)
		}
		if err := m.SetInput("a", ma); err != nil {
			t.Fatal(err)
		}
		p.Eval()
		rec := &p.recs[0]
		if rec.addr[0] != pw.Vals[2] {
			t.Fatalf("%s: the primary recorded address bit 0 %#x, presented %#x", what, rec.addr[0], pw.Vals[2])
		}
		rec.data[0] ^= 1
		if between != nil {
			between()
		}
		m.Eval()
		var own uint64
		if lay.ROMs[0].Contents[ma]&1 != 0 {
			own = ^uint64(0)
		}
		switch {
		case shared && w.Vals[10] != rec.data[0]:
			t.Errorf("%s: twin presented %#x, want the primary's record %#x", what, w.Vals[10], rec.data[0])
		case !shared && w.Vals[10] != own:
			t.Errorf("%s: twin presented %#x, want its own gather %#x", what, w.Vals[10], own)
		}
	}
	read("golden, same address", 0x11, 0x11, nil, true)
	read("another address", 0x22, 0x23, nil, false)
	alias(p.ROMStores()[0], 0x33)
	read("primary store aliased", 0x33, 0x33, nil, false)
	alias(p.ROMStores()[0], 0x33)
	read("primary alias undone", 0x34, 0x34, nil, true)
	m.ROMStores()[0].FlipBit(0x44, 2)
	read("twin store corrected", 0x44, 0x44, nil, false)
	if n := m.ROMStores()[0].Stats().CorrectedReads; n != 64 {
		t.Errorf("twin counted %d corrected lane reads, want its own gather's 64", n)
	}
	m.ROMStores()[0].Scrub(0x44)
	read("primary token moved after its gather", 0x55, 0x55, func() {
		p.ROMStores()[0].FlipBit(0x99, 1)
		p.ROMStores()[0].FlipBit(0x99, 1)
	}, false)
	read("golden again", 0x66, 0x66, nil, true)
}

// TestMachineSkipsEmptyRanges: consecutive ROMs, and a ROM at the end of
// the tape, leave empty ranges in the gather plan; a dirty pass sweeps only
// the non-empty ones and still gathers every ROM.
func TestMachineSkipsEmptyRanges(t *testing.T) {
	lay := toyLayout()
	second := lay.ROMs[0]
	second.Name = "rom2"
	for bit := range second.Out {
		second.Out[bit] = int32(20 + bit)
	}
	lay.NumVals = 28
	lay.ROMs = append(lay.ROMs, second)
	lay.Segs = []Seg{{ROM: 0, Stop: 1, Resume: 2}, {ROM: 1, Stop: 2, Resume: 3}}
	lay.End = 3
	if msgs := lay.Audit(); len(msgs) != 0 {
		t.Fatalf("layout does not audit clean: %v", msgs)
	}
	tape := &recTape{}
	m, w := New(lay, tape)
	m.Eval()
	if want := [][2]int{{0, 1}}; !slices.Equal(tape.ranges, want) {
		t.Fatalf("dirty pass swept %v, want %v", tape.ranges, want)
	}
	if got, want := w.Vals[20:28], w.Vals[10:18]; !slices.Equal(got, want) {
		t.Fatalf("second ROM presented %v, first %v: both read address 0", got, want)
	}
	// Moved read data on the last ROM resumes at the end of the tape: no
	// range is left to sweep.
	tape.ranges = nil
	m.ROMStores()[1].FlipBit(0, 3)
	m.ROMStores()[1].FlipBit(0, 5)
	m.Eval()
	if len(tape.ranges) != 0 {
		t.Fatalf("quiescent pass after moved data swept %v, want nothing", tape.ranges)
	}
	if n := m.ROMStores()[1].Stats().UncorrectableReads; n != 64 {
		t.Fatalf("%d uncorrectable lane reads, want one gather's 64", n)
	}
	if got, want := w.Vals[20], w.Vals[10]^^uint64(0); got != want {
		t.Fatalf("second ROM bit 0 reads %#x after damage, want %#x", got, want)
	}
}

// TestMachinePortErrors: every port method reports an unknown port, a
// lane out of range or a wrong-length buffer under the layout's prefix.
func TestMachinePortErrors(t *testing.T) {
	m, _ := New(toyLayout(), &recTape{})
	errs := []error{
		m.SetInput("nope", 0),
		m.SetInputLane("a", 64, 0),
		m.SetInputBits("a", make([]byte, 2)),
		m.SetInputBitsLane("a", -1, make([]byte, 1)),
	}
	_, err := m.Output("nope")
	errs = append(errs, err)
	_, err = m.OutputLane("q", 64)
	errs = append(errs, err)
	_, err = m.OutputBitsLane("nope", 0)
	errs = append(errs, err)
	_, err = m.OutputWords("nope")
	errs = append(errs, err)
	for i, err := range errs {
		if err == nil || !strings.HasPrefix(err.Error(), "toy: ") {
			t.Errorf("case %d: error %v, want a toy: error", i, err)
		}
	}
	if _, ok := m.RegValueLane("r", 64); ok {
		t.Error("RegValueLane accepted lane 64")
	}
	if _, ok := m.RegValue("nope"); ok {
		t.Error("RegValue found an unknown register")
	}
}

// TestLayoutAuditSensitivity: each corruption of the design-independent
// obligations yields a finding.
func TestLayoutAuditSensitivity(t *testing.T) {
	cases := map[string]func(l *Layout){
		"group-gap":         func(l *Layout) { l.Groups[0].Lo = 1 },
		"group-short":       func(l *Layout) { l.Groups = nil },
		"next-missing":      func(l *Layout) { l.Next = nil },
		"segment-dropped":   func(l *Layout) { l.Segs = nil },
		"segment-twice":     func(l *Layout) { l.Segs = append(l.Segs, Seg{ROM: 0, Stop: 6, Resume: 7}) },
		"segment-backwards": func(l *Layout) { l.Segs[0].Resume = 3 },
		"segment-past-end":  func(l *Layout) { l.Segs[0].Resume = 9 },
		"segment-bad-rom":   func(l *Layout) { l.Segs[0].ROM = 1 },
		"sync-rom-gathered": func(l *Layout) { l.ROMs[0].Sync = true },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			lay := toyLayout()
			corrupt(lay)
			msgs := lay.Audit()
			if len(msgs) == 0 {
				t.Fatal("audit accepted a corrupted layout")
			}
			t.Logf("detected: %s", msgs[0])
		})
	}
}

// TestMachineDriveTracksMoves: a port write sets Dirty if and only if it
// moves a stimulus word. Rewriting the bits a port already holds, on one
// lane or broadcast, leaves the next Eval quiescent; one moved bit on one
// lane makes it sweep, and lands on that lane alone.
func TestMachineDriveTracksMoves(t *testing.T) {
	tape := &recTape{}
	m, w := New(toyLayout(), tape)
	full := [][2]int{{0, 4}, {5, 8}}
	write := func(what string, dirty bool, set func() error) {
		t.Helper()
		if err := set(); err != nil {
			t.Fatal(err)
		}
		if w.Dirty != dirty {
			t.Fatalf("%s: Dirty %v, want %v", what, w.Dirty, dirty)
		}
		tape.ranges = nil
		m.Eval()
		var want [][2]int
		if dirty {
			want = full
		}
		if !slices.Equal(tape.ranges, want) {
			t.Fatalf("%s: swept %v, want %v", what, tape.ranges, want)
		}
	}
	m.Eval()
	write("broadcast", true, func() error { return m.SetInputBits("a", []byte{0x5a}) })
	write("same broadcast", false, func() error { return m.SetInputBits("a", []byte{0x5a}) })
	write("same value", false, func() error { return m.SetInput("a", 0x5a) })
	write("same bits on lane 7", false, func() error { return m.SetInputBitsLane("a", 7, []byte{0x5a}) })
	write("same value on lane 63", false, func() error { return m.SetInputLane("a", 63, 0x5a) })
	write("bit 0 moved on lane 7", true, func() error { return m.SetInputBitsLane("a", 7, []byte{0x5b}) })
	if got, want := w.Src[2], uint64(1)<<7; got != want {
		t.Fatalf("a[0] = %#x after the lane write, want %#x", got, want)
	}
	for bit := 1; bit < 8; bit++ {
		if got, want := w.Src[2+bit], logic.Word(0x5a>>bit&1 != 0); got != want {
			t.Fatalf("a[%d] = %#x, want %#x: an unmoved bit changed", bit, got, want)
		}
	}
	write("bit 7 moved on lane 0", true, func() error { return m.SetInputLane("a", 0, 0xda) })
	write("same lane value", false, func() error { return m.SetInputLane("a", 0, 0xda) })
}

// TestUnpackLanesMatchesOutputBitsLane checks the driver's bulk capture
// against the per-lane read: for random lane words on ports of 1, 13 and
// 128 bits (plain and inverted literals), every used-lane count and random
// ready masks, logic.UnpackLanes over OutputWords must give each ready
// lane exactly OutputBitsLane's bytes and leave every other lane's bytes
// alone.
func TestUnpackLanesMatchesOutputBitsLane(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, width := range []int{1, 13, 128} {
		bus := make([]Lit, width)
		for i := range bus {
			bus[i] = Lit(i)<<1 | Lit(rng.Intn(2))
		}
		lay := &Layout{Pkg: "wide", NumVals: width, Outputs: map[string][]Lit{"y": bus}}
		m, w := New(lay, &recTape{})
		n := (width + 7) / 8
		for used := 1; used <= logic.Lanes; used++ {
			for v := range w.Vals {
				w.Vals[v] = rng.Uint64()
			}
			ready := rng.Uint64()
			if used < logic.Lanes {
				ready &= 1<<uint(used) - 1
			}
			words, err := m.OutputWords("y")
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, n*used)
			for i := range dst {
				dst[i] = 0xa5
			}
			logic.UnpackLanes(dst, words, ready)
			for lane := 0; lane < used; lane++ {
				got := dst[n*lane : n*(lane+1)]
				want := bytes.Repeat([]byte{0xa5}, n)
				if ready>>uint(lane)&1 != 0 {
					if want, err = m.OutputBitsLane("y", lane); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("width %d, %d lanes, ready %#x: lane %d unpacked %x, want %x", width, used, ready, lane, got, want)
				}
			}
		}
	}
}
