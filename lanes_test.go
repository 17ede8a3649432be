package rijndaelip_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"rijndaelip"
	"rijndaelip/internal/bfm"
	"rijndaelip/internal/faultcampaign"
	"rijndaelip/internal/netlist"
)

// laneSim is the per-lane surface the differential equivalence tests need;
// both cycle-accurate simulators provide it.
type laneSim interface {
	bfm.Sim
	SetInputLane(name string, lane int, value uint64) error
	SetInputBitsLane(name string, lane int, bits []byte) error
	OutputBitsLane(name string, lane int) ([]byte, error)
	RegValueLane(name string, lane int) ([]byte, bool)
}

// laneStimulus is one cycle of randomized per-lane drive for the Table 1
// input surface (including protocol-illegal combinations — equivalence
// must hold whatever state the control FSM wanders into).
type laneStimulus struct {
	setup, wrKey, wrData, encdec uint64
	din                          [16]byte
}

func randomStimulus(rng *rand.Rand) laneStimulus {
	s := laneStimulus{
		setup:  uint64(rng.Intn(2)),
		wrKey:  uint64(rng.Intn(2)),
		wrData: uint64(rng.Intn(2)),
		encdec: uint64(rng.Intn(2)),
	}
	rng.Read(s.din[:])
	return s
}

func (s laneStimulus) driveScalar(t *testing.T, sim bfm.Sim) {
	t.Helper()
	for _, p := range [...]struct {
		name string
		v    uint64
	}{{"setup", s.setup}, {"wr_key", s.wrKey}, {"wr_data", s.wrData}, {"encdec", s.encdec}} {
		if err := sim.SetInput(p.name, p.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.SetInputBits("din", s.din[:]); err != nil {
		t.Fatal(err)
	}
}

func (s laneStimulus) driveLane(t *testing.T, sim laneSim, lane int) {
	t.Helper()
	for _, p := range [...]struct {
		name string
		v    uint64
	}{{"setup", s.setup}, {"wr_key", s.wrKey}, {"wr_data", s.wrData}, {"encdec", s.encdec}} {
		if err := sim.SetInputLane(p.name, lane, p.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.SetInputBitsLane("din", lane, s.din[:]); err != nil {
		t.Fatal(err)
	}
}

// laneEquivalence runs the differential lockstep sweep: the vector
// simulator carries 64 independently-driven lanes while 64 scalar
// reference simulators of the same design each replay one lane's
// stimulus. After every cycle, every lane's observable outputs and
// internal registers must bit-exactly match its scalar twin.
func laneEquivalence(t *testing.T, vector laneSim, scalars []bfm.Sim, cycles int) {
	t.Helper()
	regs := []string{"busy", "pending", "data_ok_reg", "s0", "s3"}
	rng := rand.New(rand.NewSource(0x1a9e5))
	for cyc := 0; cyc < cycles; cyc++ {
		stim := make([]laneStimulus, len(scalars))
		for lane := range scalars {
			stim[lane] = randomStimulus(rng)
			stim[lane].driveLane(t, vector, lane)
			stim[lane].driveScalar(t, scalars[lane])
		}
		vector.Eval()
		for _, s := range scalars {
			s.Eval()
		}
		for lane, s := range scalars {
			for _, port := range []string{"data_ok", "dout"} {
				want, err := s.OutputBits(port)
				if err != nil {
					t.Fatal(err)
				}
				got, err := vector.OutputBitsLane(port, lane)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("cycle %d lane %d: %s = %x, scalar reference %x", cyc, lane, port, got, want)
				}
			}
			for _, reg := range regs {
				want, ok1 := s.RegValue(reg)
				got, ok2 := vector.RegValueLane(reg, lane)
				if ok1 != ok2 || !bytes.Equal(got, want) {
					t.Fatalf("cycle %d lane %d: reg %s = %x, scalar reference %x", cyc, lane, reg, got, want)
				}
			}
		}
		vector.Step()
		for _, s := range scalars {
			s.Step()
		}
	}
}

// TestLaneEquivalenceRTL sweeps all 64 lanes of the RTL simulator against
// 64 scalar reference runs under random per-lane stimulus.
func TestLaneEquivalenceRTL(t *testing.T) {
	impl := engineImpl(t)
	vector := impl.Core.Design.NewSimulator()
	scalars := make([]bfm.Sim, 64)
	for i := range scalars {
		scalars[i] = impl.Core.Design.NewSimulator()
	}
	cycles := 40
	if testing.Short() {
		cycles = 12
	}
	laneEquivalence(t, vector, scalars, cycles)
}

// TestLaneEquivalenceNetlist is the post-synthesis counterpart: the same
// differential sweep over the technology-mapped gate-level simulator.
func TestLaneEquivalenceNetlist(t *testing.T) {
	impl := engineImpl(t)
	nl := impl.Netlist.Raw()
	newSim := func() *netlist.Simulator {
		s, err := netlist.NewSimulator(nl)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	vector := newSim()
	scalars := make([]bfm.Sim, 64)
	for i := range scalars {
		scalars[i] = newSim()
	}
	cycles := 25
	if testing.Short() {
		cycles = 8
	}
	laneEquivalence(t, vector, scalars, cycles)
}

// TestVectorDriverPerLaneKeys loads a different key on every lane, pushes
// a different block down every lane in one transaction, and checks each
// lane's result against the FIPS-197 software reference under that lane's
// key — the full transpose/de-transpose round trip of the BFM's lanes.
func TestVectorDriverPerLaneKeys(t *testing.T) {
	impl := engineImpl(t)
	v := bfm.New(impl.Core)
	keys := make([][]byte, bfm.Lanes)
	blocks := make([][]byte, bfm.Lanes)
	rng := rand.New(rand.NewSource(0xd0d0))
	for i := range keys {
		keys[i] = make([]byte, 16)
		blocks[i] = make([]byte, 16)
		rng.Read(keys[i])
		rng.Read(blocks[i])
	}
	if _, err := v.LoadKeys(keys); err != nil {
		t.Fatal(err)
	}
	outs, cycles, err := v.ProcessVector(blocks, true)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != impl.Core.BlockLatency {
		t.Errorf("vector transaction took %d cycles, want block latency %d", cycles, impl.Core.BlockLatency)
	}
	want := make([]byte, 16)
	for lane := range outs {
		ref, err := rijndaelip.NewCipher(keys[lane])
		if err != nil {
			t.Fatal(err)
		}
		ref.Encrypt(want, blocks[lane])
		if !bytes.Equal(outs[lane], want) {
			t.Fatalf("lane %d diverged from software reference under its own key", lane)
		}
	}
}

// TestVectorDriverPostSynthesis runs a packed vector transaction over the
// gate-level netlist simulator and checks every lane against the software
// reference — the mapped design must carry lanes exactly like the RTL.
func TestVectorDriverPostSynthesis(t *testing.T) {
	impl := engineImpl(t)
	v, err := impl.NewPostSynthesisDriver()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.LoadKey(engineKey); err != nil {
		t.Fatal(err)
	}
	n := 17 // deliberately partial: lanes 17..63 idle
	blocks := make([][]byte, n)
	rng := rand.New(rand.NewSource(42))
	for i := range blocks {
		blocks[i] = make([]byte, 16)
		rng.Read(blocks[i])
	}
	outs, _, err := v.ProcessVector(blocks, true)
	if err != nil {
		t.Fatal(err)
	}
	ref := engineRef(t)
	want := make([]byte, 16)
	for lane := range outs {
		ref.Encrypt(want, blocks[lane])
		if !bytes.Equal(outs[lane], want) {
			t.Fatalf("post-synthesis lane %d diverged from software reference", lane)
		}
	}
}

// TestEnginePartialBatchOccupancy submits batches smaller and larger than
// the lane width and checks both the round trip and the lane-occupancy
// accounting: a 5-block batch is one submission wasting 59 lanes, a
// 70-block batch is a full submission plus a 6-block remainder.
func TestEnginePartialBatchOccupancy(t *testing.T) {
	impl := engineImpl(t)
	eng, err := impl.NewEngine(engineKey, rijndaelip.EngineOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ref := engineRef(t)
	check := func(nBlocks int) {
		src := make([]byte, nBlocks*16)
		for i := range src {
			src[i] = byte(i*13 + nBlocks)
		}
		got, err := eng.EncryptECB(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		back, err := eng.DecryptECB(context.Background(), got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, src) {
			t.Fatalf("%d-block partial batch did not round-trip", nBlocks)
		}
		want := make([]byte, 16)
		for i := 0; i < nBlocks; i++ {
			ref.Encrypt(want, src[i*16:i*16+16])
			if !bytes.Equal(got[i*16:i*16+16], want) {
				t.Fatalf("%d-block batch: block %d diverged from reference", nBlocks, i)
			}
		}
	}
	check(5)  // 1 submission, 59 idle lanes (x2 for the decrypt pass)
	check(70) // 2 submissions: 64 + 6

	st := eng.Stats()
	if st.Blocks != 2*(5+70) {
		t.Fatalf("stats counted %d blocks, want %d", st.Blocks, 2*(5+70))
	}
	if st.Submissions != 2*(1+2) {
		t.Fatalf("stats counted %d submissions, want %d", st.Submissions, 2*(1+2))
	}
	wantWasted := uint64(2 * (59 + 0 + 58))
	if st.WastedLanes != wantWasted {
		t.Fatalf("stats counted %d wasted lanes, want %d", st.WastedLanes, wantWasted)
	}
	wantOcc := float64(st.Blocks) / float64(st.Blocks+st.WastedLanes)
	if st.LaneOccupancy != wantOcc {
		t.Fatalf("lane occupancy %.4f, want %.4f", st.LaneOccupancy, wantOcc)
	}
}

// TestEngineLaneScaling is the deterministic acceptance gate on the
// simulated-cycle axis: packing 64 blocks into one submission must cost at
// least 10x fewer simulated cycles per block than scalar one-block
// submissions on the same single shard.
func TestEngineLaneScaling(t *testing.T) {
	impl := engineImpl(t)
	cpb := map[int]float64{}
	for _, lanes := range []int{1, 64} {
		eng, err := impl.NewEngine(engineKey, rijndaelip.EngineOptions{Shards: 1, MaxLanes: lanes})
		if err != nil {
			t.Fatal(err)
		}
		src := make([]byte, 64*16)
		for i := range src {
			src[i] = byte(i)
		}
		if _, err := eng.EncryptECB(context.Background(), src); err != nil {
			eng.Close()
			t.Fatal(err)
		}
		st := eng.Stats()
		eng.Close()
		if st.Blocks != 64 {
			t.Fatalf("lanes=%d processed %d blocks, want 64", lanes, st.Blocks)
		}
		cpb[lanes] = st.AggregateCyclesPerBlock
		t.Logf("lanes=%d: %.2f simulated cycles/block (makespan %d)", lanes, st.AggregateCyclesPerBlock, st.MaxShardCycles)
	}
	if ratio := cpb[1] / cpb[64]; ratio < 10 {
		t.Errorf("64-lane packing improved cycles/block only %.1fx over scalar, want >= 10x", ratio)
	}
	if cpb[64] >= 1 {
		t.Errorf("full-occupancy cycles/block = %.2f, want < 1 (one transaction amortized over 64 lanes)", cpb[64])
	}
}

// TestVectorDriverValidation pins the BFM's lane argument checks.
func TestVectorDriverValidation(t *testing.T) {
	impl := engineImpl(t)
	v := bfm.New(impl.Core)
	if _, err := v.LoadKeys(nil); err == nil {
		t.Error("LoadKeys accepted an empty key list")
	}
	if _, err := v.LoadKeys([][]byte{make([]byte, 15)}); err == nil {
		t.Error("LoadKeys accepted a 15-byte key")
	}
	if _, _, err := v.ProcessVector(nil, true); err == nil {
		t.Error("ProcessVector accepted an empty block list")
	}
	tooMany := make([][]byte, bfm.Lanes+1)
	for i := range tooMany {
		tooMany[i] = make([]byte, 16)
	}
	if _, _, err := v.ProcessVector(tooMany, true); err == nil {
		t.Errorf("ProcessVector accepted %d blocks", bfm.Lanes+1)
	}
	if _, _, err := v.ProcessVector([][]byte{make([]byte, 15)}, true); err == nil {
		t.Error("ProcessVector accepted a 15-byte block")
	}
}

// TestLaneFaultIsolationNetlist spot-checks that per-lane fault injection
// stays lane-isolated at the netlist level: flipping a state flip-flop on
// lane 3 must corrupt lane 3's output and leave every other lane
// bit-exact.
func TestLaneFaultIsolationNetlist(t *testing.T) {
	impl := engineImpl(t)
	dev, err := faultcampaign.NewDevice(impl.Core, impl.Netlist.Raw(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Key(engineKey); err != nil {
		t.Fatal(err)
	}
	v, sim := dev.Driver, dev.Primary
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, 16)
	}
	ff := sim.FindFF("s0[0]")
	if ff < 0 {
		t.Fatal("state flip-flop s0[0] not found in mapped netlist")
	}
	sim.ScheduleFlipLanes(1+7, 1<<3, ff) // strike lane 3 at processing cycle 7
	outs, _, err := v.ProcessVector(blocks, true)
	if err != nil {
		t.Fatal(err)
	}
	ref := engineRef(t)
	want := make([]byte, 16)
	for lane := range outs {
		ref.Encrypt(want, blocks[lane])
		if lane == 3 {
			if bytes.Equal(outs[lane], want) {
				t.Error("state upset on lane 3 was silently masked")
			}
			continue
		}
		if !bytes.Equal(outs[lane], want) {
			t.Errorf("fault on lane 3 leaked into lane %d", lane)
		}
	}
}
