package logic

import (
	"math/rand"
	"testing"
)

// gatherROMRef is the per-lane reference gather: each lane's address is
// assembled bit by bit, looked up, and its data scattered bit by bit.
func gatherROMRef(contents *[256]byte, addr *[8]uint64) [8]uint64 {
	var out [8]uint64
	for lane := 0; lane < Lanes; lane++ {
		a := 0
		for bit := 0; bit < 8; bit++ {
			a |= int(addr[bit]>>uint(lane)&1) << uint(bit)
		}
		w := uint64(contents[a])
		for bit := 0; bit < 8; bit++ {
			out[bit] |= (w >> uint(bit) & 1) << uint(lane)
		}
	}
	return out
}

func randTable(r *rand.Rand) *[256]byte {
	var t [256]byte
	for i := range t {
		t[i] = byte(r.Intn(256))
	}
	return &t
}

// laneAddrs builds word-transposed address words from per-lane addresses.
func laneAddrs(a *[Lanes]byte) [8]uint64 {
	var addr [8]uint64
	for lane, v := range a {
		for bit := 0; bit < 8; bit++ {
			addr[bit] |= uint64(v>>uint(bit)&1) << uint(lane)
		}
	}
	return addr
}

// TestGatherROMMatchesReference fuzzes GatherROM against the per-lane
// reference over uniform, single-lane-divergent, all-divergent and random
// address words.
func TestGatherROMMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(0x6a7))
	shapes := map[string]func() [8]uint64{
		"uniform": func() [8]uint64 {
			var a [Lanes]byte
			v := byte(r.Intn(256))
			for lane := range a {
				a[lane] = v
			}
			return laneAddrs(&a)
		},
		"one-lane-divergent": func() [8]uint64 {
			var a [Lanes]byte
			v := byte(r.Intn(256))
			for lane := range a {
				a[lane] = v
			}
			a[r.Intn(Lanes)] ^= byte(1 + r.Intn(255))
			return laneAddrs(&a)
		},
		"all-divergent": func() [8]uint64 {
			// Every lane reads a different word.
			var a [Lanes]byte
			for lane, v := range r.Perm(256)[:Lanes] {
				a[lane] = byte(v)
			}
			return laneAddrs(&a)
		},
		"random-words": func() [8]uint64 {
			var addr [8]uint64
			for bit := range addr {
				switch r.Intn(4) {
				case 0:
					addr[bit] = 0
				case 1:
					addr[bit] = ^uint64(0)
				default:
					addr[bit] = r.Uint64()
				}
			}
			return addr
		},
	}
	for name, gen := range shapes {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 500; i++ {
				tbl := randTable(r)
				addr := gen()
				got, want := GatherROM(tbl, &addr), gatherROMRef(tbl, &addr)
				if got != want {
					t.Fatalf("case %d: addr %#x: got %#x, want %#x", i, addr, got, want)
				}
			}
		})
	}
}

// TestTranspose8 checks the 8x8 bit-matrix transpose element by element
// and that it is an involution.
func TestTranspose8(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		x := r.Uint64()
		y := transpose8(x)
		for row := uint(0); row < 8; row++ {
			for col := uint(0); col < 8; col++ {
				if x>>(8*row+col)&1 != y>>(8*col+row)&1 {
					t.Fatalf("transpose8(%#x) = %#x: element (%d,%d) not mirrored", x, y, row, col)
				}
			}
		}
		if transpose8(y) != x {
			t.Fatalf("transpose8 is not an involution on %#x", x)
		}
	}
}

var gatherSink [8]uint64

// BenchmarkGatherROM times one 64-lane gather with lane-uniform addresses
// (the broadcast fast path) and with divergent ones (the transposed path).
func BenchmarkGatherROM(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tbl := randTable(r)
	var uniform, divergent [8]uint64
	for bit := range divergent {
		if r.Intn(2) == 0 {
			uniform[bit] = ^uint64(0)
		}
		divergent[bit] = r.Uint64()
	}
	for _, c := range []struct {
		name string
		addr *[8]uint64
	}{{"uniform", &uniform}, {"divergent", &divergent}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gatherSink = GatherROM(tbl, c.addr)
			}
		})
	}
}
