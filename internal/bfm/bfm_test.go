package bfm

import (
	"bytes"
	"errors"
	"testing"

	"rijndaelip/internal/aes"
	"rijndaelip/internal/logic"
	"rijndaelip/internal/netlist"
	"rijndaelip/internal/rijndael"
	"rijndaelip/internal/rtl"
	"rijndaelip/internal/techmap"
)

// toyDevice builds a minimal Table-1 device: after wr_data it counts down
// `delay` cycles, then presents din XOR key on dout with data_ok high.
// It reuses the exact pending/handshake semantics the driver expects.
func toyDevice(t *testing.T, delay uint64) *rtl.Design {
	t.Helper()
	b := rtl.NewBuilder("toy")
	g := b.Logic()
	b.Input("clk", 1)
	setup := b.Input("setup", 1)[0]
	wrData := b.Input("wr_data", 1)[0]
	wrKey := b.Input("wr_key", 1)[0]
	din := b.Input("din", 128)

	dinReg := b.Reg("din_reg", 128)
	keyReg := b.Reg("key_reg", 128)
	pending := b.Reg("pending", 1)
	keyvalid := b.Reg("keyvalid", 1)
	busy := b.Reg("busy", 1)
	cnt := b.Reg("cnt", 8)
	work := b.Reg("work", 128)
	doutReg := b.Reg("dout_reg", 128)
	dataOk := b.Reg("data_ok_reg", 1)

	busyQ := busy.Q[0]
	pendingQ := pending.Q[0]
	keyLoad := g.AndN(wrKey, setup, logic.Not(busyQ))
	occupied := g.OrN(busyQ, logic.Not(keyvalid.Q[0]), keyLoad)
	ld := g.AndN(logic.Not(occupied), g.Or(pendingQ, wrData))
	done := g.And(busyQ, rijndael.EqConstNet(g, cnt.Q, delay))

	src := g.MuxVector(pendingQ, dinReg.Q, din)
	dinReg.SetNext(din, wrData)
	keyReg.SetNext(din, keyLoad)
	keyvalid.SetNext(rtl.Bus{g.Or(keyvalid.Q[0], keyLoad)}, logic.True)
	pending.SetNext(rtl.Bus{g.Mux(ld, g.And(pendingQ, wrData),
		g.Or(pendingQ, g.And(wrData, occupied)))}, logic.True)
	busy.SetNext(rtl.Bus{g.Or(ld, g.And(busyQ, logic.Not(done)))}, logic.True)
	cnt.SetNext(g.MuxVector(ld, rtl.Const(8, 1), rijndael.IncNet(g, cnt.Q)), g.Or(ld, busyQ))
	work.SetNext(g.XorVector(src, keyReg.Q), ld)
	doutReg.SetNext(work.Q, done)
	dataOk.SetNext(rtl.Bus{g.Or(done, g.And(dataOk.Q[0], logic.Not(ld)))}, logic.True)

	b.Output("dout", doutReg.Q)
	b.Output("data_ok", rtl.Bus{dataOk.Q[0]})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func toyDriver(t *testing.T, delay uint64) *Driver {
	t.Helper()
	d := toyDevice(t, delay)
	return NewDUT(DUT{
		Sim:          d.NewSimulator(),
		BlockLatency: int(delay),
		HasEncrypt:   true,
		Name:         "toy",
	})
}

func TestDriverSingleTransaction(t *testing.T) {
	drv := toyDriver(t, 7)
	key := bytes.Repeat([]byte{0x5A}, 16)
	if _, err := drv.LoadKey(key); err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte{0x33}, 16)
	out, cycles, err := drv.Encrypt(block)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x5A ^ 0x33}, 16)
	if !bytes.Equal(out, want) {
		t.Fatalf("toy result %x, want %x", out, want)
	}
	if cycles != 7 {
		t.Errorf("latency %d, want 7", cycles)
	}
}

func TestDriverKeySizeValidation(t *testing.T) {
	drv := toyDriver(t, 3)
	if _, err := drv.LoadKey(make([]byte, 8)); err == nil {
		t.Error("8-byte key accepted")
	}
	if _, _, err := drv.Encrypt(make([]byte, 15)); err == nil {
		t.Error("15-byte block accepted")
	}
}

func TestDriverDirectionRejection(t *testing.T) {
	drv := toyDriver(t, 3)
	drv.LoadKey(make([]byte, 16))
	if _, _, err := drv.Decrypt(make([]byte, 16)); err == nil {
		t.Error("decrypt accepted by encrypt-only DUT")
	}
}

func TestDriverTimeout(t *testing.T) {
	// A device that never completes: delay beyond the timeout horizon.
	drv := toyDriver(t, 200)
	drv.Timeout = 20
	drv.LoadKey(make([]byte, 16))
	if _, _, err := drv.Encrypt(make([]byte, 16)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
}

func TestDriverStreamOverlap(t *testing.T) {
	drv := toyDriver(t, 9)
	key := bytes.Repeat([]byte{0x0F}, 16)
	drv.LoadKey(key)
	blocks := make([][]byte, 5)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, 16)
	}
	outs, res, err := drv.Stream(blocks, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		want := bytes.Repeat([]byte{byte(i+1) ^ 0x0F}, 16)
		if !bytes.Equal(outs[i], want) {
			t.Fatalf("stream block %d: %x, want %x", i, outs[i], want)
		}
	}
	if res.Blocks != 5 || res.CyclesPerBlock > 12 {
		t.Errorf("stream result %+v", res)
	}
}

// TestStreamCycleAccounting pins the documented stream boundary: the
// steady-state CyclesPerBlock excludes the one-time pipe fill, so streams
// of different lengths over the same device report the same rate, and
// TotalCycles lands on the capture cycle of the final result.
func TestStreamCycleAccounting(t *testing.T) {
	mkBlocks := func(n int) [][]byte {
		blocks := make([][]byte, n)
		for i := range blocks {
			blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, 16)
		}
		return blocks
	}
	stream := func(n int) StreamResult {
		drv := toyDriver(t, 9)
		drv.LoadKey(bytes.Repeat([]byte{0x0F}, 16))
		outs, res, err := drv.Stream(mkBlocks(n), true)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != n {
			t.Fatalf("stream of %d returned %d results", n, len(outs))
		}
		return res
	}
	short, long := stream(3), stream(12)
	if short.CyclesPerBlock != long.CyclesPerBlock {
		t.Errorf("steady-state rate depends on stream length: 3 blocks %.2f, 12 blocks %.2f",
			short.CyclesPerBlock, long.CyclesPerBlock)
	}
	if short.PipeFillCycles <= 0 || short.PipeFillCycles >= short.TotalCycles {
		t.Errorf("pipe fill %d out of range (total %d)", short.PipeFillCycles, short.TotalCycles)
	}
	// The last-result boundary: total = fill + (blocks-1) * steady rate.
	want := float64(short.PipeFillCycles) + float64(short.Blocks-1)*short.CyclesPerBlock
	if got := float64(short.TotalCycles); got != want {
		t.Errorf("TotalCycles %v, want fill+steady = %v", got, want)
	}
	// A single-block stream has no steady-state window: the rate is the
	// whole transaction.
	single := stream(1)
	if single.CyclesPerBlock != float64(single.TotalCycles) {
		t.Errorf("single-block rate %.2f, want TotalCycles %d", single.CyclesPerBlock, single.TotalCycles)
	}

	// The same stream on the technology-mapped Encrypt core: Stream polls
	// RegValue("pending"), which the netlist simulator answers from the
	// flip-flops named pending[i], so the mapped driver must return the RTL
	// driver's blocks with the same cycle accounting.
	core, sim := mappedEncryptCore(t)
	key := bytes.Repeat([]byte{0x2B}, 16)
	blocks := mkBlocks(6)
	var results [2]StreamResult
	var outs [2][][]byte
	for i, drv := range []*Driver{New(core), NewPostSynthesis(core, sim)} {
		if _, err := drv.LoadKey(key); err != nil {
			t.Fatal(err)
		}
		var err error
		if outs[i], results[i], err = drv.Stream(blocks, true); err != nil {
			t.Fatalf("%s: %v", drv.DUT.Name, err)
		}
	}
	for i := range blocks {
		if !bytes.Equal(outs[0][i], outs[1][i]) {
			t.Errorf("mapped stream block %d: %x, RTL %x", i, outs[1][i], outs[0][i])
		}
	}
	wantRes := StreamResult{Blocks: 6, TotalCycles: 306, PipeFillCycles: 51, CyclesPerBlock: 51}
	for i, res := range results {
		if res != wantRes {
			t.Errorf("stream %d on the Encrypt core: %+v, want %+v", i, res, wantRes)
		}
	}
}

// TestKeyedFactoryClones checks that factory clones are identically keyed
// but fully independent: both produce the reference ciphertext, and
// advancing one simulator does not disturb the other.
func TestKeyedFactoryClones(t *testing.T) {
	core, err := rijndael.New(rijndael.Config{Variant: rijndael.Encrypt, ROMStyle: rtl.ROMAsync})
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{0xA5}, 16)
	if _, err := NewKeyedFactory(core, make([]byte, 7)); err == nil {
		t.Error("7-byte key accepted by factory")
	}
	f, err := NewKeyedFactory(core, key)
	if err != nil {
		t.Fatal(err)
	}
	a, setupA, err := f.CloneVectorSim(core.Design.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	b, setupB, err := f.CloneVectorSim(core.Design.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	if setupA != setupB || setupA <= 0 {
		t.Errorf("setup cycles differ between clones: %d vs %d", setupA, setupB)
	}
	pt := []byte("clone-block-0000")
	outA1, _, err := a.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	// Push extra traffic through clone a only; clone b must be unaffected.
	for i := 0; i < 3; i++ {
		if _, _, err := a.Encrypt(bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	outB, _, err := b.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outA1, outB) {
		t.Errorf("clones disagree on the same block: %x vs %x", outA1, outB)
	}
}

func TestDriverReset(t *testing.T) {
	drv := toyDriver(t, 4)
	drv.LoadKey(make([]byte, 16))
	drv.Encrypt(make([]byte, 16))
	drv.Reset()
	// After reset the key is gone: a process must time out (keyvalid off).
	drv.Timeout = 30
	if _, _, err := drv.Encrypt(make([]byte, 16)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected timeout after reset, got %v", err)
	}
}

// TestLatencyAssertion arms the fixed-latency protocol check on a device
// whose completion comes later than the declared block latency: Process
// must flag the transaction even though data_ok eventually rose.
func TestLatencyAssertion(t *testing.T) {
	d := toyDevice(t, 9)
	drv := NewDUT(DUT{
		Sim:          d.NewSimulator(),
		BlockLatency: 7, // declared latency disagrees with the device's 9
		HasEncrypt:   true,
		Name:         "toy-late",
	})
	drv.AssertLatency = true
	drv.LoadKey(make([]byte, 16))
	out, cycles, err := drv.Encrypt(make([]byte, 16))
	if !errors.Is(err, ErrLatency) {
		t.Fatalf("expected ErrLatency, got %v", err)
	}
	if cycles != 9 || out == nil {
		t.Errorf("suspect output should still be reported: cycles=%d out=%x", cycles, out)
	}

	// The assertion covers every lane, not just the one that finishes
	// last: a round-counter upset on lane 1 of the mapped core raises that
	// lane's data_ok early with a wrong dout while lane 0 completes on
	// time.
	core, sim := mappedEncryptCore(t)
	drv = NewPostSynthesis(core, sim)
	drv.AssertLatency = true
	if _, err := drv.LoadKey(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	ff := sim.FindFF("round[3]")
	if ff < 0 {
		t.Fatal("round[3] not found in mapped netlist")
	}
	sim.ScheduleFlipLanes(1, 1<<1, ff) // processing cycle 0, lane 1 only
	blocks := [][]byte{make([]byte, 16), make([]byte, 16)}
	outs, cycles, err := drv.ProcessVector(blocks, true)
	if !errors.Is(err, ErrLatency) {
		t.Fatalf("early data_ok on lane 1: expected ErrLatency, got %v (cycles=%d)", err, cycles)
	}
	if cycles != core.BlockLatency || len(outs) != 2 {
		t.Errorf("transaction should run to the on-time lane: cycles=%d outs=%d", cycles, len(outs))
	}
}

// mappedEncryptCore elaborates and maps the encrypt-only core and returns
// a netlist simulator of it.
func mappedEncryptCore(t *testing.T) (*rijndael.Core, *netlist.Simulator) {
	t.Helper()
	core, err := rijndael.New(rijndael.Config{Variant: rijndael.Encrypt, ROMStyle: rtl.ROMAsync})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := core.Design.Synthesize(techmap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netlist.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	return core, sim
}

// TestWatchdogWedgedFSM wedges a real mapped core — a stuck-at-0 fault on
// the data_ok output register means the completion handshake can never
// fire — and checks that the driver's watchdog returns a timeout within
// the cycle budget instead of looping forever.
func TestWatchdogWedgedFSM(t *testing.T) {
	core, sim := mappedEncryptCore(t)
	drv := NewPostSynthesis(core, sim)
	if _, err := drv.LoadKey(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	ff := sim.FindFF("data_ok_reg[0]")
	if ff < 0 {
		t.Fatal("data_ok_reg[0] not found in mapped netlist")
	}
	sim.StickFF(ff, false)
	before := sim.Cycle()
	_, cycles, err2 := drv.Encrypt(make([]byte, 16))
	if !errors.Is(err2, ErrTimeout) {
		t.Fatalf("wedged FSM: expected ErrTimeout, got %v", err2)
	}
	if cycles < drv.Timeout {
		t.Errorf("watchdog fired after %d cycles, budget is %d", cycles, drv.Timeout)
	}
	// The whole transaction must have been bounded by the budget (+ the
	// load edge), proving the driver cannot spin unbounded on a dead core.
	if spent := sim.Cycle() - before; spent > drv.Timeout+2 {
		t.Errorf("driver spent %d cycles, budget %d", spent, drv.Timeout)
	}
}

// doutRecorder wraps a simulator and, after every Eval, reads each of the
// first n lanes through the per-lane accessors: the dout a lane showed on
// the first Eval its data_ok was high, and how many Evals came before. It
// is the reference the driver's bulk capture is checked against.
type doutRecorder struct {
	Sim
	n     int
	evals int
	first [Lanes]int
	dout  [Lanes][]byte
}

func (r *doutRecorder) Eval() {
	r.Sim.Eval()
	for lane := 0; lane < r.n; lane++ {
		if ok, err := r.Sim.OutputLane("data_ok", lane); err == nil && ok == 1 && r.dout[lane] == nil {
			r.dout[lane], _ = r.Sim.OutputBitsLane("dout", lane)
			r.first[lane] = r.evals
		}
	}
	r.evals++
}

// TestStaggeredCapture strikes lanes of the mapped core so that their
// data_ok rises on different cycles: lane 1's round counter is knocked
// back (late), lane 2's data_ok register is set mid-run (early, and its
// dout moves again when the real result lands). Each lane must keep the
// dout of its own data_ok cycle, as the per-lane reads see it then, and
// later captures must not touch lanes already captured.
func TestStaggeredCapture(t *testing.T) {
	core, sim := mappedEncryptCore(t)
	rec := &doutRecorder{Sim: sim, n: 4}
	drv := NewPostSynthesis(core, rec)
	key := make([]byte, 16)
	if _, err := drv.LoadKey(key); err != nil {
		t.Fatal(err)
	}
	sim.ScheduleFlipLanes(11, 1<<1, sim.FindFF("round[3]"))
	sim.ScheduleFlipLanes(21, 1<<2, sim.FindFF("data_ok_reg[0]"))
	blocks := make([][]byte, rec.n)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(17 * (i + 1))}, 16)
	}
	var tx Transaction
	if err := drv.Transact(&tx, blocks, true); err != nil {
		t.Fatal(err)
	}
	want := [4]int{core.BlockLatency, 90, 21, core.BlockLatency}
	if got := [4]int(tx.Latency[:4]); got != want || tx.Hung != 0 {
		t.Fatalf("latencies %v (hung %#x), want %v: the strikes no longer stagger the lanes", got, tx.Hung, want)
	}
	for lane := range blocks {
		if rec.first[lane] != tx.Latency[lane] || !bytes.Equal(tx.Outs[lane], rec.dout[lane]) {
			t.Errorf("lane %d: captured %x after %d cycles, per-lane read %x after %d",
				lane, tx.Outs[lane], tx.Latency[lane], rec.dout[lane], rec.first[lane])
		}
	}
	for _, lane := range []int{0, 3} {
		if ct, err := aes.EncryptBlock(key, blocks[lane]); err != nil || !bytes.Equal(tx.Outs[lane], ct) {
			t.Errorf("on-time lane %d: %x, want %x", lane, tx.Outs[lane], ct)
		}
	}
	if final, _ := sim.OutputBitsLane("dout", 2); bytes.Equal(final, tx.Outs[2]) {
		t.Error("lane 2's dout never moved after its early data_ok: the case does not tell an early capture from a late one")
	}
}
