package edac

import (
	"math/bits"
	"testing"
)

// Every data byte must round-trip through a clean codeword.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for d := 0; d < 256; d++ {
		cw := Encode(byte(d))
		if bits.OnesCount16(cw)&1 != 0 {
			t.Fatalf("codeword for %#02x has odd weight", d)
		}
		got, st := Decode(cw)
		if st != Clean || got != byte(d) {
			t.Fatalf("Decode(Encode(%#02x)) = %#02x, %v", d, got, st)
		}
	}
}

// Every single-bit error, at every codeword position, must be corrected.
func TestSingleBitCorrection(t *testing.T) {
	for d := 0; d < 256; d++ {
		cw := Encode(byte(d))
		for b := 0; b < CodeBits; b++ {
			got, st := Decode(cw ^ 1<<uint(b))
			if st != Corrected || got != byte(d) {
				t.Fatalf("data %#02x bit %d: got %#02x, %v", d, b, got, st)
			}
		}
	}
}

// Every double-bit error must be flagged uncorrectable, never silently
// miscorrected into the wrong byte with a Clean/Corrected verdict.
func TestDoubleBitDetection(t *testing.T) {
	for d := 0; d < 256; d++ {
		cw := Encode(byte(d))
		for b1 := 0; b1 < CodeBits; b1++ {
			for b2 := b1 + 1; b2 < CodeBits; b2++ {
				_, st := Decode(cw ^ 1<<uint(b1) ^ 1<<uint(b2))
				if st != Uncorrectable {
					t.Fatalf("data %#02x bits %d,%d: status %v", d, b1, b2, st)
				}
			}
		}
	}
}

func gold(i int) byte { return byte(i * 7) }

func identityContents() (c [Words]byte) {
	for i := range c {
		c[i] = gold(i)
	}
	return c
}

func laneAddr(a int) (addr [8]uint64) {
	for bit := 0; bit < 8; bit++ {
		if a>>uint(bit)&1 != 0 {
			addr[bit] = ^uint64(0)
		}
	}
	return addr
}

func TestGatherCorrectsSingleBit(t *testing.T) {
	r := New("sbox", identityContents())
	r.FlipBit(42, 5)
	got := r.Gather(ptr(laneAddr(42)))
	want := gold(42)
	for bit := 0; bit < 8; bit++ {
		w := uint64(0)
		if want>>uint(bit)&1 != 0 {
			w = ^uint64(0)
		}
		if got[bit] != w {
			t.Fatalf("bit %d: got %#x want %#x", bit, got[bit], w)
		}
	}
	st := r.Stats()
	if st.CorrectedReads == 0 || st.FaultyWords != 1 {
		t.Fatalf("stats after corrected gather: %+v", st)
	}
}

func TestGatherRawOnUncorrectable(t *testing.T) {
	r := New("sbox", identityContents())
	// Flip two data-position bits so the raw data visibly differs.
	r.FlipBit(10, 3)
	r.FlipBit(10, 5)
	d, st := r.Read(10)
	if st != Uncorrectable {
		t.Fatalf("status %v", st)
	}
	if d == gold(10) {
		t.Fatalf("uncorrectable read should return the raw corrupted data")
	}
	if s := r.Stats(); s.UncorrectableReads == 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestScrubRepairsSEU(t *testing.T) {
	r := New("sbox", identityContents())
	r.FlipBit(7, 0)
	if got := r.Scrub(7); got != ScrubRepaired {
		t.Fatalf("scrub = %v", got)
	}
	if got := r.Scrub(7); got != ScrubClean {
		t.Fatalf("second scrub = %v", got)
	}
	if r.FaultyWords() != 0 {
		t.Fatalf("faulty words remain after repair")
	}
}

func TestScrubReportsStuckBitAsHard(t *testing.T) {
	r := New("sbox", identityContents())
	bit := 4
	r.StickBit(99, bit, !r.CodewordBit(99, bit))
	// The stuck bit is corrected on every read...
	if d, st := r.Read(99); st != Corrected || d != gold(99) {
		t.Fatalf("read = %#02x, %v", d, st)
	}
	// ...but a rewrite cannot clear it.
	if got := r.Scrub(99); got != ScrubHard {
		t.Fatalf("scrub = %v", got)
	}
	if bad := r.BadWords(); len(bad) != 1 || bad[0].Word != 99 {
		t.Fatalf("bad words: %+v", bad)
	}
}

func TestScrubLeavesUncorrectableAlone(t *testing.T) {
	r := New("sbox", identityContents())
	r.FlipBit(3, 1)
	r.FlipBit(3, 2)
	if got := r.Scrub(3); got != ScrubUncorrectable {
		t.Fatalf("scrub = %v", got)
	}
	if _, st := r.Read(3); st != Uncorrectable {
		t.Fatalf("status after scrub: %v", st)
	}
}

func TestStickBitAgreeingWithStoredValueIsBenign(t *testing.T) {
	r := New("sbox", identityContents())
	r.StickBit(50, 2, r.CodewordBit(50, 2))
	if r.FaultyWords() != 0 {
		t.Fatalf("stuck-at matching the stored bit should not fault the word")
	}
}

func TestClearFaultsRestoresGolden(t *testing.T) {
	r := New("sbox", identityContents())
	r.FlipBit(1, 1)
	r.StickBit(2, 2, !r.CodewordBit(2, 2))
	r.ClearFaults()
	if r.FaultyWords() != 0 {
		t.Fatalf("faults survive ClearFaults")
	}
	if d, st := r.Read(2); st != Clean || d != gold(2) {
		t.Fatalf("read after clear = %#02x, %v", d, st)
	}
}

func ptr(a [8]uint64) *[8]uint64 { return &a }

// TestTokenMoves lists which operations move a store's read-view token: an
// operation moves it exactly when some word's decoded data or status
// changes, whether or not the store ends clean, and the low bit follows
// FaultyWords. Reads, gathers, a scrub with nothing to repair, a scrub of
// a hard fault and a stuck-at that agrees with the stored bit leave the
// view, and so the token, unchanged.
func TestTokenMoves(t *testing.T) {
	alias := Encode(1) // a data bit's codeword: four bits, another valid word
	cases := []struct {
		name  string
		setup func(r *ROM) // brings the store to the state under test
		op    func(r *ROM)
		moves bool
	}{
		{"Read", nil, func(r *ROM) { r.Read(5) }, false},
		{"Gather", nil, func(r *ROM) { a := laneAddr(5); r.Gather(&a) }, false},
		{"Gather on a faulty store", func(r *ROM) { r.FlipBit(5, 3) }, func(r *ROM) { a := laneAddr(5); r.Gather(&a) }, false},
		{"clean Scrub", nil, func(r *ROM) { r.Scrub(5) }, false},
		{"hard Scrub", func(r *ROM) { r.StickBit(5, 3, !r.CodewordBit(5, 3)) }, func(r *ROM) { r.Scrub(5) }, false},
		{"benign StickBit", nil, func(r *ROM) { r.StickBit(5, 3, r.CodewordBit(5, 3)) }, false},
		{"ClearFaults on a clean store", nil, func(r *ROM) { r.ClearFaults() }, false},
		{"FlipBit", nil, func(r *ROM) { r.FlipBit(5, 3) }, true},
		{"StickBit", nil, func(r *ROM) { r.StickBit(5, 3, !r.CodewordBit(5, 3)) }, true},
		{"Scrub repair", func(r *ROM) { r.FlipBit(5, 3) }, func(r *ROM) { r.Scrub(5) }, true},
		{"ClearFaults", func(r *ROM) { r.FlipBit(5, 3) }, func(r *ROM) { r.ClearFaults() }, true},
		{"clean alias", nil, func(r *ROM) {
			for bit := 0; bit < CodeBits; bit++ {
				if alias>>uint(bit)&1 != 0 {
					r.FlipBit(5, bit)
				}
			}
		}, true},
	}
	for _, c := range cases {
		r := New("sbox", identityContents())
		if c.setup != nil {
			c.setup(r)
		}
		before := r.Token()
		c.op(r)
		after := r.Token()
		if moved := after != before; moved != c.moves {
			t.Errorf("%s: token %#x -> %#x, moved %v, want %v", c.name, before, after, moved, c.moves)
		}
		if faulty := r.FaultyWords() > 0; (after&1 != 0) != faulty {
			t.Errorf("%s: token %#x with %d faulty words: low bit must be set exactly while a word is faulty", c.name, after, r.FaultyWords())
		}
	}
	r := New("sbox", identityContents())
	for bit := 0; bit < CodeBits; bit++ {
		if alias>>uint(bit)&1 != 0 {
			r.FlipBit(5, bit)
		}
	}
	if d, st := r.Read(5); st != Clean || d != gold(5)^1 {
		t.Fatalf("clean alias reads %#02x, %v; want %#02x, clean", d, st, gold(5)^1)
	}
}

// TestGoldenToken walks one store through the damage a fault campaign
// plants and checks that Golden holds on its token exactly while every
// word decodes Clean to its golden byte. The clean alias is the case a
// clean token alone gets wrong: four flips that land on another valid
// codeword leave no word faulty, yet word 5 reads the wrong byte.
func TestGoldenToken(t *testing.T) {
	alias := Encode(1) // a data bit's codeword: four bits, another valid word
	r := New("sbox", identityContents())
	steps := []struct {
		name string
		op   func()
	}{
		{"fresh", func() {}},
		{"FlipBit", func() { r.FlipBit(5, 3) }},
		{"Scrub repair", func() { r.Scrub(5) }},
		{"clean alias", func() {
			for bit := 0; bit < CodeBits; bit++ {
				if alias>>uint(bit)&1 != 0 {
					r.FlipBit(5, bit)
				}
			}
		}},
		{"alias undone", func() {
			for bit := 0; bit < CodeBits; bit++ {
				if alias>>uint(bit)&1 != 0 {
					r.FlipBit(5, bit)
				}
			}
		}},
		{"double flip", func() { r.FlipBit(9, 1); r.FlipBit(9, 2) }},
		{"ClearFaults", func() { r.ClearFaults() }},
		{"StickBit", func() { r.StickBit(9, 4, !r.CodewordBit(9, 4)) }},
		{"ClearFaults after StickBit", func() { r.ClearFaults() }},
	}
	for _, st := range steps {
		st.op()
		want := true
		for w := 0; w < Words; w++ {
			if d, s := r.Read(w); d != gold(w) || s != Clean {
				want = false
			}
		}
		if tok := r.Token(); Golden(tok) != want {
			t.Errorf("%s: token %#x: Golden %v, want %v", st.name, tok, Golden(tok), want)
		}
	}
}

// TestTokenConcurrentScrub reads the token and gathers on one goroutine
// while another damages and scrubs the store: the interleaving the store's
// lock permits. Run under -race. The token never goes back,
// and once both are done it shows every move: each flip of a clean word
// and each scrub repair moves it once.
func TestTokenConcurrentScrub(t *testing.T) {
	r := New("sbox", identityContents())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			w := i % Words
			r.FlipBit(w, i%CodeBits)
			r.Scrub(w)
		}
	}()
	addr := laneAddr(7)
	prev := r.Token()
	for {
		select {
		case <-done:
			if tok := r.Token(); tok != 2*2*500 || r.FaultyWords() != 0 {
				t.Fatalf("after 500 flips and repairs: token %d, want %d; %d faulty words", tok, 2*2*500, r.FaultyWords())
			}
			return
		default:
		}
		tok := r.Token()
		if tok < prev {
			t.Fatalf("token went back from %#x to %#x", prev, tok)
		}
		prev = tok
		r.Gather(&addr)
	}
}
