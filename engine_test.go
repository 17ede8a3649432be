package rijndaelip_test

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rijndaelip"
	"rijndaelip/internal/modes"
)

// engineImpl caches one built implementation for the engine tests; every
// engine clones fresh simulator state from it, so sharing the build is
// safe.
var (
	engineImplOnce sync.Once
	engineImplVal  *rijndaelip.Implementation
	engineImplErr  error
)

func engineImpl(t *testing.T) *rijndaelip.Implementation {
	t.Helper()
	engineImplOnce.Do(func() {
		engineImplVal, engineImplErr = rijndaelip.Build(rijndaelip.Both, rijndaelip.Acex1K())
	})
	if engineImplErr != nil {
		t.Fatal(engineImplErr)
	}
	return engineImplVal
}

var engineKey = []byte("engine-key-00000")

func engineRef(t *testing.T) modes.Block {
	t.Helper()
	ref, err := rijndaelip.NewCipher(engineKey)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestEngineECBMatchesReference fans independent blocks across 4 shards
// and checks every result, in order, against the software reference.
func TestEngineECBMatchesReference(t *testing.T) {
	impl := engineImpl(t)
	eng, err := impl.NewEngine(engineKey, rijndaelip.EngineOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	src := make([]byte, 24*16)
	for i := range src {
		src[i] = byte(i * 7)
	}
	got, err := eng.EncryptECB(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := modes.EncryptECB(engineRef(t), src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sharded ECB diverged from software reference")
	}
	back, err := eng.DecryptECB(context.Background(), got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Fatal("sharded ECB round trip failed")
	}
	st := eng.Stats()
	if st.Blocks != 48 {
		t.Errorf("stats count %d blocks, want 48", st.Blocks)
	}
	var sum uint64
	for _, ss := range st.Shards {
		sum += ss.Blocks
		if ss.Blocks > 0 && ss.CyclesPerBlock <= 0 {
			t.Errorf("shard %d has blocks but no cycle rate: %+v", ss.Shard, ss)
		}
	}
	if sum != st.Blocks {
		t.Errorf("per-shard blocks sum %d != aggregate %d", sum, st.Blocks)
	}
	if st.MaxShardCycles == 0 || st.AggregateCyclesPerBlock <= 0 {
		t.Errorf("aggregate cycle accounting empty: %+v", st)
	}
}

// TestEngineModesOverHardware runs the full modes stack — CTR, CBC both
// directions, CFB, and GCM through the modes.Block adapter — over the
// shard pool and cross-checks the software implementations.
func TestEngineModesOverHardware(t *testing.T) {
	impl := engineImpl(t)
	eng, err := impl.NewEngine(engineKey, rijndaelip.EngineOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref := engineRef(t)
	ctx := context.Background()
	iv := bytes.Repeat([]byte{0x42}, 16)
	msg := make([]byte, 10*16+5) // deliberately not block-aligned
	for i := range msg {
		msg[i] = byte(i ^ 0x5C)
	}

	ctGot, err := eng.CTR(ctx, iv, msg)
	if err != nil {
		t.Fatal(err)
	}
	ctWant, _ := modes.CTRStream(ref, iv, msg)
	if !bytes.Equal(ctGot, ctWant) {
		t.Error("engine CTR diverged from software CTR")
	}

	aligned := msg[:10*16]
	cbcGot, err := eng.EncryptCBC(ctx, iv, aligned)
	if err != nil {
		t.Fatal(err)
	}
	cbcWant, _ := modes.EncryptCBC(ref, iv, aligned)
	if !bytes.Equal(cbcGot, cbcWant) {
		t.Error("engine CBC encrypt diverged from software CBC")
	}
	cbcBack, err := eng.DecryptCBC(ctx, iv, cbcGot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cbcBack, aligned) {
		t.Error("engine CBC round trip failed")
	}

	cfbGot, err := eng.EncryptCFB(ctx, iv, msg)
	if err != nil {
		t.Fatal(err)
	}
	cfbWant, _ := modes.EncryptCFB(ref, iv, msg)
	if !bytes.Equal(cfbGot, cfbWant) {
		t.Error("engine CFB diverged from software CFB")
	}
	cfbBack, err := eng.DecryptCFB(ctx, iv, cfbGot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cfbBack, msg) {
		t.Error("engine CFB round trip failed")
	}

	// GCM over the hardware pool: the adapter is a plain modes.Block, so
	// the authenticated mode composes with zero engine-specific code.
	hwGCM, err := modes.NewGCM(eng.Block())
	if err != nil {
		t.Fatal(err)
	}
	swGCM, err := modes.NewGCM(ref)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("engine-nonce")
	sealedHW, err := hwGCM.Seal(nonce, msg, []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	sealedSW, err := swGCM.Seal(nonce, msg, []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sealedHW, sealedSW) {
		t.Error("GCM over the shard pool diverged from software GCM")
	}
	opened, err := swGCM.Open(nonce, sealedHW, []byte("aad"))
	if err != nil || !bytes.Equal(opened, msg) {
		t.Errorf("software GCM rejected hardware-sealed message: %v", err)
	}

	// A short buffer is protocol misuse: the adapter records it and zeroes
	// what dst it has instead of writing a partial result.
	blk := eng.Block()
	short := bytes.Repeat([]byte{0xFF}, 8)
	blk.Encrypt(short, make([]byte, 16))
	if blk.Err() == nil {
		t.Error("8-byte dst not recorded as an error")
	}
	if !bytes.Equal(short, make([]byte, 8)) {
		t.Errorf("short dst not zeroed: %x", short)
	}
}

// TestEngineOrderingUnderJitter is the satellite ordering check: 8 shards
// with randomized per-shard latency skew must still return results in
// submission order — result i is always E(blocks[i]).
func TestEngineOrderingUnderJitter(t *testing.T) {
	impl := engineImpl(t)
	eng, err := impl.NewEngine(engineKey, rijndaelip.EngineOptions{
		Shards: 8,
		// Two blocks per submission: with full 64-lane packing the whole
		// message would collapse into one submission and there would be no
		// completion order to scramble.
		MaxLanes: 2,
		Jitter: func(shard, index int) {
			// Deterministically lopsided: some shards run up to ~1ms late
			// per block, so completion order scrambles thoroughly.
			time.Sleep(time.Duration((shard*131+index*17)%5) * 250 * time.Microsecond)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const n = 64
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i)}, 16)
		blocks[i][15] = byte(i >> 4)
	}
	outs, err := eng.Process(context.Background(), blocks, true)
	if err != nil {
		t.Fatal(err)
	}
	ref := engineRef(t)
	want := make([]byte, 16)
	for i := range blocks {
		ref.Encrypt(want, blocks[i])
		if !bytes.Equal(outs[i], want) {
			t.Fatalf("result %d out of order under jitter", i)
		}
	}
	// The jitter skews shards enough that stealing must have happened —
	// the scheduler property the test is really about.
	st := eng.Stats()
	var stolen uint64
	for _, ss := range st.Shards {
		stolen += ss.Stolen
	}
	t.Logf("jitter run: %d/%d blocks stolen across shards", stolen, st.Blocks)
}

// TestEngineScalingCTR checks the scheduling-independent side of shard
// scaling: every shard count delivers the same 64 blocks in 64
// single-block submissions, every shard takes part, and sharding only
// redistributes the simulated cycles — their total over all shards is the
// same at 1, 2 and 4 shards. How evenly the work spreads (the makespan,
// MaxShardCycles) depends on which worker drains the queue, so it is
// logged, not asserted.
func TestEngineScalingCTR(t *testing.T) {
	if testing.Short() {
		t.Skip("three engine sweeps over 64-block messages in -short mode")
	}
	impl := engineImpl(t)
	iv := bytes.Repeat([]byte{0x01}, 16)
	msg := make([]byte, 64*16)
	for i := range msg {
		msg[i] = byte(i)
	}
	total := map[int]uint64{}
	for _, shards := range []int{1, 2, 4} {
		// MaxLanes 1 keeps this a pure shard-scaling measurement: lane
		// packing would absorb all 64 blocks into one submission per shard
		// (see TestEngineLaneScaling for that axis). The Jitter barrier
		// holds each shard's first block until every shard has taken one,
		// so a dispatcher that starves a shard fails the spread check below
		// (after the timeout) instead of passing on a lucky schedule.
		firsts := make([]sync.Once, shards)
		var arrived atomic.Int32
		allIn := make(chan struct{})
		barrier := func(shard, _ int) {
			firsts[shard].Do(func() {
				if arrived.Add(1) == int32(shards) {
					close(allIn)
				}
				select {
				case <-allIn:
				case <-time.After(10 * time.Second):
				}
			})
		}
		eng, err := impl.NewEngine(engineKey, rijndaelip.EngineOptions{Shards: shards, MaxLanes: 1, Jitter: barrier})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.CTR(context.Background(), iv, msg); err != nil {
			eng.Close()
			t.Fatal(err)
		}
		st := eng.Stats()
		eng.Close()
		if st.Blocks != 64 || st.Submissions != 64 || len(st.Shards) != shards {
			t.Fatalf("shards=%d: %d blocks in %d submissions over %d shards, want 64 in 64 over %d",
				shards, st.Blocks, st.Submissions, len(st.Shards), shards)
		}
		for i, ss := range st.Shards {
			if ss.Blocks == 0 {
				t.Errorf("shards=%d: shard %d processed no blocks", shards, i)
			}
			total[shards] += ss.Cycles
		}
		t.Logf("shards=%d: %d cycles in total, makespan %d (%.2f cycles/block)",
			shards, total[shards], st.MaxShardCycles, st.AggregateCyclesPerBlock)
	}
	if total[2] != total[1] || total[4] != total[1] {
		t.Errorf("total simulated cycles changed with the shard count: 1->%d 2->%d 4->%d",
			total[1], total[2], total[4])
	}
}

// TestEngineBackpressureAndCancel pins the bounded-queue semantics: with
// one deliberately slow shard and a tiny queue, a cancelled context must
// abort a stuck submission, and the batch must still settle (no leaked
// goroutines, no hung Process).
func TestEngineBackpressureAndCancel(t *testing.T) {
	impl := engineImpl(t)
	block := make(chan struct{})
	var once sync.Once
	eng, err := impl.NewEngine(engineKey, rijndaelip.EngineOptions{
		Shards:     1,
		QueueDepth: 1,
		// One block per submission so the 8-block batch actually exercises
		// the bounded queue (a packed batch would be a single submission).
		MaxLanes: 1,
		Jitter: func(shard, index int) {
			once.Do(func() { <-block }) // wedge the only shard on its first block
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
		close(block)
	}()
	// Shard busy on block 0, queue holds block 1, block 2's submission
	// must park on backpressure until the context cancels it.
	src := make([]byte, 8*16)
	_, err = eng.EncryptECB(ctx, src)
	if err == nil {
		t.Fatal("cancelled batch reported success")
	}
	// After cancellation the pool must still be serviceable.
	out, err := eng.EncryptECB(context.Background(), src[:2*16])
	if err != nil {
		t.Fatalf("engine unusable after cancelled batch: %v", err)
	}
	want, _ := modes.EncryptECB(engineRef(t), src[:2*16])
	if !bytes.Equal(out, want) {
		t.Error("post-cancel result diverged from reference")
	}
}

// TestEngineClose pins shutdown semantics: Close is idempotent and
// further submissions are rejected with ErrEngineClosed.
func TestEngineClose(t *testing.T) {
	impl := engineImpl(t)
	eng, err := impl.NewEngine(engineKey, rijndaelip.EngineOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EncryptECB(context.Background(), make([]byte, 4*16)); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close() // idempotent
	if _, err := eng.EncryptECB(context.Background(), make([]byte, 16)); err != rijndaelip.ErrEngineClosed {
		t.Errorf("post-close submission: got %v, want ErrEngineClosed", err)
	}
}

// TestEngineKeyValidation checks construction-time key checking: a key
// must have exactly the core's key length, so an AES-256 key is not
// silently truncated by an AES-128 core and an AES-128 key does not wedge
// an AES-256 core at its first transaction.
func TestEngineKeyValidation(t *testing.T) {
	impl := engineImpl(t)
	if _, err := impl.NewEngine(make([]byte, 5), rijndaelip.EngineOptions{}); err == nil {
		t.Error("5-byte key accepted by engine")
	}
	if _, err := impl.NewEngine(make([]byte, 32), rijndaelip.EngineOptions{}); err == nil {
		t.Error("32-byte key accepted by an AES-128 engine")
	}
	impl256, err := rijndaelip.Build256(rijndaelip.Encrypt, rijndaelip.Acex1K())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := impl256.NewEngine(make([]byte, 16), rijndaelip.EngineOptions{}); err == nil {
		t.Error("16-byte key accepted by an AES-256 engine")
	}
}

// TestEngineCallAllocs holds an engine call to the allocations of its
// result. A shard runs its transactions on buffers it owns, and a call
// allocates its jobs together with its batch, so Process allocates the
// input concatenation, the output array, its slice headers and the batch
// (a one-job call keeps its job inside the batch), whatever its block
// count. EncryptECB's count must not grow with the message: 4 KiB and
// 16 KiB are 4 and 16 lane-packed submissions, on a plain engine and on a
// lockstep-supervised one. The counts include every shard worker's
// allocations and are exact, not timing. They are averaged over 20 calls
// and rounded down, so a per-call allocation shows while a one-off one (a
// shard record's first growth, a runtime wait record after a collection)
// does not.
func TestEngineCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const maxProcessAllocs = 4
	impl := engineImpl(t)
	allocs := func(f func() error) float64 {
		t.Helper()
		var failed error
		n := testing.AllocsPerRun(20, func() {
			if err := f(); err != nil {
				failed = err
			}
		})
		if failed != nil {
			t.Fatal(failed)
		}
		return n
	}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		sup  *rijndaelip.SupervisorOptions
	}{
		{"plain", nil},
		{"lockstep", &rijndaelip.SupervisorOptions{Check: rijndaelip.CheckLockstep}},
	} {
		eng, err := impl.NewEngine(engineKey, rijndaelip.EngineOptions{Shards: 2, Supervise: c.sup})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		for _, n := range []int{1, 3, 4} {
			blocks := make([][]byte, n)
			for i := range blocks {
				blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, 16)
			}
			got := allocs(func() error {
				_, err := eng.Process(ctx, blocks, n%2 == 1)
				return err
			})
			if got > maxProcessAllocs {
				t.Errorf("%s: Process of %d blocks makes %.0f allocations, want at most %d", c.name, n, got, maxProcessAllocs)
			}
		}
		// A call that fans its blocks out in one batch allocates the same
		// at any length: no submission allocates.
		small, large := make([]byte, 4<<10), make([]byte, 16<<10)
		iv := make([]byte, 16)
		for _, call := range []struct {
			name string
			f    func(src []byte) ([]byte, error)
		}{
			{"EncryptECB", func(src []byte) ([]byte, error) { return eng.EncryptECB(ctx, src) }},
			{"DecryptCFB", func(src []byte) ([]byte, error) { return eng.DecryptCFB(ctx, iv, src) }},
		} {
			size := func(src []byte) float64 {
				return allocs(func() error {
					_, err := call.f(src)
					return err
				})
			}
			a4, a16 := size(small), size(large)
			t.Logf("%s: %s makes %.0f allocations for 4 KiB and %.0f for 16 KiB", c.name, call.name, a4, a16)
			if a4 != a16 {
				t.Errorf("%s: %s makes %.0f allocations for 4 KiB but %.0f for 16 KiB: a submission allocates", c.name, call.name, a4, a16)
			}
		}
	}
}
