package logic

import "math/bits"

// Lane/word data layout
//
// Every value flowing through Eval/EvalInto is a uint64 *lane word*: bit L
// of the word carries the value of independent simulation lane L, so one
// AIG sweep evaluates Lanes parallel patterns at the cost of one. The
// cycle-accurate simulators built on top (internal/rtl, internal/netlist)
// keep their whole sequential state in the same layout — a W-bit register
// is W lane words, one per register bit — which turns a single simulated
// device into a 64-lane SIMD machine: 64 independent blocks (or fault
// scenarios) ride through one sweep sequence in lockstep.
//
// A bus-level value for lane L is therefore *word-transposed*: bit b of
// the bus lives at bit L of word b, not packed contiguously. Word(v)
// broadcasts a scalar across all lanes (the layout every scalar API uses),
// UnpackLanes turns bus words back into packed per-lane bytes, and
// GatherROM is the raw per-lane gather primitive over a 256-byte table.
// The simulators do not call GatherROM on ROM contents directly: each ROM
// macro's words sit behind an EDAC (SECDED) code in internal/edac, whose
// store decodes — correcting single-bit errors and counting the event —
// into a post-correction byte table and hands *that* table to GatherROM.
// ROM contents are not lane-resolved: the store is physical memory shared
// by every lane, so a faulted word reads the same (corrected or, for
// multi-bit damage, raw) value on all lanes that address it.

// Lanes is the simulation lane count: the pattern width of one uint64
// sweep word.
const Lanes = 64

// Word broadcasts a scalar bit across all lanes.
func Word(v bool) uint64 {
	if v {
		return ^uint64(0)
	}
	return 0
}

// GatherROM performs a per-lane 256x8 table read: addr holds the 8
// word-transposed address bits, and the result holds the 8 word-transposed
// data bits, where each lane L reads contents[addr_L] independently. The
// contents array is the *decoded* view an edac.ROM store maintains — words
// needing single-bit correction have already been corrected by the code
// before they land here, so this fast path never sees a raw faulty bit
// (stores with faulty words take the counting slow path in edac instead).
// When every address word is lane-uniform (the scalar broadcast case) a
// single table lookup is broadcast instead of the 64-lane gather/scatter.
//
// The divergent case works on 8 groups of 8 lanes. Byte g of the 8 address
// words, packed into one uint64, is an 8x8 bit matrix whose row b holds
// address bit b of lanes 8g..8g+7; transposing it puts lane 8g+j's whole
// address in byte j, so the group costs 8 plain table lookups. The looked-
// up bytes are transposed back into one byte per data bit and scattered
// into the output words.
func GatherROM(contents *[256]byte, addr *[8]uint64) [8]uint64 {
	var out [8]uint64
	uniform := true
	a0 := 0
	for bit := 0; bit < 8; bit++ {
		switch addr[bit] {
		case 0:
		case ^uint64(0):
			a0 |= 1 << uint(bit)
		default:
			uniform = false
		}
		if !uniform {
			break
		}
	}
	if uniform {
		w := contents[a0]
		for bit := 0; bit < 8; bit++ {
			out[bit] = Word(w>>uint(bit)&1 != 0)
		}
		return out
	}
	for g := uint(0); g < Lanes; g += 8 {
		var m uint64
		for bit := uint(0); bit < 8; bit++ {
			m |= (addr[bit] >> g & 0xff) << (8 * bit)
		}
		m = transpose8(m)
		var d uint64
		for j := uint(0); j < 64; j += 8 {
			d |= uint64(contents[byte(m>>j)]) << j
		}
		d = transpose8(d)
		for bit := uint(0); bit < 8; bit++ {
			out[bit] |= (d >> (8 * bit) & 0xff) << g
		}
	}
	return out
}

// UnpackLanes de-transposes bus words into packed per-lane bytes, the
// inverse of the word-transposed layout: words[i] is the lane word of bus
// bit i, and for every lane L set in lanes, dst[L*n:(L+1)*n] receives lane
// L's bus value with bit i at byte i/8 bit i%8, where n = (len(words)+7)/8.
// Bytes of lanes outside the mask are left untouched; dst must reach the
// highest masked lane's bytes. It works on 8x8 blocks like GatherROM's
// divergent path: byte g of bus words 8k..8k+7, packed into one uint64, is
// a matrix whose row b holds bus bit 8k+b of lanes 8g..8g+7, and
// transposing it puts lane 8g+j's byte k in byte j.
func UnpackLanes(dst []byte, words []uint64, lanes uint64) {
	n := (len(words) + 7) / 8
	for g := uint(0); g < Lanes; g += 8 {
		sel := lanes >> g & 0xff
		if sel == 0 {
			continue
		}
		for k := 0; k < n; k++ {
			var m uint64
			for b, w := range words[8*k : min(8*k+8, len(words))] {
				m |= (w >> g & 0xff) << (8 * uint(b))
			}
			m = transpose8(m)
			for s := sel; s != 0; s &= s - 1 {
				j := bits.TrailingZeros64(s)
				dst[(int(g)+j)*n+k] = byte(m >> (8 * uint(j)))
			}
		}
	}
}

// transpose8 transposes an 8x8 bit matrix held row-major in a uint64 (bit
// c of byte r is element (r, c)) by three rounds of block swaps (Hacker's
// Delight, 7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	return x ^ t ^ t<<28
}
