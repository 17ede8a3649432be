package lanesim

import (
	"strings"
	"testing"
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
// gathers the ROM exactly once.
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
