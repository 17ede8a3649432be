// Package edac implements error detection and correction for the design's
// 256x8 S-box ROMs: a SECDED (single-error-correct, double-error-detect)
// code over each ROM word plus a wrapped ROM store the simulators read
// through.
//
// Each 8-bit ROM word is stored as a 13-bit codeword — a Hamming(12,8)
// code extended with an overall parity bit, the per-word analogue of the
// Hamming(72,64) layout used by wide EDAC memories. A single flipped bit
// anywhere in the codeword (data, check, or parity) is corrected on read
// and counted; two flipped bits are detected and reported as
// uncorrectable, in which case the raw data bits are returned unrepaired
// so downstream redundancy (lockstep, inverse checks) can catch the
// corruption.
//
// The store distinguishes the two upset classes that matter for triage:
// FlipBit models a radiation-induced SEU in the memory array — wrong until
// rewritten, gone after a scrub — while StickBit models a hard stuck-at
// fault that re-asserts itself after every rewrite. A background scrubber
// sweeping Scrub over all words repairs the former and surfaces the
// latter.
package edac

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"rijndaelip/internal/logic"
)

// Codeword geometry. Bit positions follow the classic Hamming layout:
// position 0 is the overall parity bit, positions 1, 2, 4, 8 are the
// Hamming check bits, and the remaining positions 3, 5, 6, 7, 9, 10, 11,
// 12 carry data bits d0..d7 in order.
const (
	// DataBits is the width of one ROM word.
	DataBits = 8
	// CodeBits is the width of one stored codeword.
	CodeBits = 13
	// Words is the depth of one ROM macro.
	Words = 256
)

// dataPos[i] is the codeword position of data bit i.
var dataPos = [DataBits]int{3, 5, 6, 7, 9, 10, 11, 12}

// Status classifies one decoded word.
type Status uint8

// Decode outcomes.
const (
	// Clean: the codeword is error-free.
	Clean Status = iota
	// Corrected: a single-bit error was corrected; the data is right.
	Corrected
	// Uncorrectable: a multi-bit error was detected; the returned data
	// bits are the raw (possibly wrong) stored bits.
	Uncorrectable
)

func (s Status) String() string {
	switch s {
	case Clean:
		return "clean"
	case Corrected:
		return "corrected"
	case Uncorrectable:
		return "uncorrectable"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Encode produces the 13-bit SECDED codeword for one ROM word.
func Encode(d byte) uint16 {
	var cw uint16
	for i, p := range dataPos {
		cw |= uint16(d>>uint(i)&1) << uint(p)
	}
	// Each check bit makes the parity of its position group even.
	for _, c := range [4]int{1, 2, 4, 8} {
		par := uint16(0)
		for pos := 3; pos <= 12; pos++ {
			if pos&c != 0 {
				par ^= cw >> uint(pos) & 1
			}
		}
		cw |= par << uint(c)
	}
	// Overall parity makes the whole codeword even-weight.
	cw |= uint16(bits.OnesCount16(cw) & 1)
	return cw
}

// Decode recovers the data byte from a codeword, correcting a single-bit
// error anywhere in the word. For an uncorrectable (double-bit) error the
// raw data bits are returned as stored.
func Decode(cw uint16) (byte, Status) {
	cw &= 1<<CodeBits - 1
	syn := 0
	for pos := 1; pos < CodeBits; pos++ {
		if cw>>uint(pos)&1 != 0 {
			syn ^= pos
		}
	}
	even := bits.OnesCount16(cw)&1 == 0
	switch {
	case syn == 0 && even:
		return extract(cw), Clean
	case !even:
		// Odd overall parity: exactly one bit flipped — at position syn,
		// or the parity bit itself when syn is 0.
		if syn >= CodeBits {
			return extract(cw), Uncorrectable
		}
		return extract(cw ^ 1<<uint(syn)), Corrected
	default:
		// Non-zero syndrome with even parity: two bits flipped.
		return extract(cw), Uncorrectable
	}
}

func extract(cw uint16) byte {
	var d byte
	for i, p := range dataPos {
		d |= byte(cw>>uint(p)&1) << uint(i)
	}
	return d
}

// ScrubResult classifies one scrub visit to a word.
type ScrubResult uint8

// Scrub outcomes.
const (
	// ScrubClean: the word held a valid codeword.
	ScrubClean ScrubResult = iota
	// ScrubRepaired: a correctable error was found and the rewrite took —
	// the word is clean again (an SEU flushed from the array).
	ScrubRepaired
	// ScrubHard: the error is correctable on every read, but rewriting
	// the word did not clear it — a stuck bit re-asserted itself. The
	// fault is persistent hardware damage.
	ScrubHard
	// ScrubUncorrectable: the word holds a multi-bit error the code
	// cannot reconstruct; reads return raw, possibly wrong, data.
	ScrubUncorrectable
)

func (s ScrubResult) String() string {
	switch s {
	case ScrubClean:
		return "clean"
	case ScrubRepaired:
		return "repaired"
	case ScrubHard:
		return "hard"
	case ScrubUncorrectable:
		return "uncorrectable"
	}
	return fmt.Sprintf("ScrubResult(%d)", int(s))
}

// Stats is a snapshot of a store's EDAC event counters.
type Stats struct {
	// CorrectedReads counts read events whose addressed word needed (and
	// got) single-bit correction.
	CorrectedReads uint64
	// UncorrectableReads counts read events that hit a word with a
	// multi-bit error.
	UncorrectableReads uint64
	// FaultyWords is the number of words currently holding any error.
	FaultyWords int
}

// BadWord identifies one currently-faulty word of a store.
type BadWord struct {
	Word   int
	Status Status
}

// ROM is an EDAC-wrapped 256x8 ROM store. The golden contents are encoded
// into per-word SECDED codewords at construction; reads decode through the
// code, so injected bit errors in the stored array are corrected (and
// counted) transparently. The store is safe for concurrent use: the
// simulator owning it reads on its worker goroutine while a background
// scrubber sweeps and repairs words.
type ROM struct {
	mu     sync.Mutex
	name   string
	golden [Words]byte // reference contents, never faulted

	code [Words]uint16 // stored codewords (SEUs land here)
	// Hard stuck-at masks applied on top of the stored array: a bit set
	// in stuckKnown is forced to the corresponding bit of stuckVal.
	stuckKnown [Words]uint16
	stuckVal   [Words]uint16

	// Decoded read view, refreshed whenever the stored array changes:
	// data holds the post-correction bytes, status the per-word decode
	// outcome, faulty the count of non-Clean words. While faulty is zero
	// Gather serves straight from data via the lane-uniform fast path.
	data   [Words]byte
	status [Words]Status
	faulty int

	token atomic.Uint64 // see Token; written under mu

	corrected     uint64
	uncorrectable uint64
}

// New builds a store over the golden ROM contents.
func New(name string, contents [Words]byte) *ROM {
	r := &ROM{name: name, golden: contents}
	for w := 0; w < Words; w++ {
		r.code[w] = Encode(contents[w])
		r.data[w] = contents[w]
	}
	return r
}

// Name returns the ROM macro name the store wraps.
func (r *ROM) Name() string { return r.name }

// effective is the codeword as the read circuitry sees it: the stored
// array with hard stuck bits forced.
func (r *ROM) effective(w int) uint16 {
	return r.code[w]&^r.stuckKnown[w] | r.stuckVal[w]&r.stuckKnown[w]
}

// refresh re-decodes one word into the read view, moving the token when
// the word's data or status changes. Callers hold mu.
func (r *ROM) refresh(w int) {
	d, st := Decode(r.effective(w))
	if d == r.data[w] && st == r.status[w] {
		return
	}
	if (r.status[w] == Clean) != (st == Clean) {
		if st == Clean {
			r.faulty--
		} else {
			r.faulty++
		}
	}
	r.data[w] = d
	r.status[w] = st
	r.moved()
}

// moved publishes a new token after the read view changed. Callers hold
// mu.
func (r *ROM) moved() {
	tok := r.token.Load()&^1 + 2
	if r.faulty > 0 {
		tok |= 1
	}
	r.token.Store(tok)
}

// Token returns the store's read-view token. It changes whenever any
// word's decoded data or status changes, and its low bit is set while any
// word is faulty. Reading it takes no lock: two equal, clean tokens mean
// a Gather at either instant returns the same data for the same addresses
// and counts nothing, so a reader that presented the first Gather's data
// may skip the second. Reads, gathers and scrubs that find nothing to
// repair leave it unchanged.
func (r *ROM) Token() uint64 { return r.token.Load() }

// Gather performs the lane-parallel ROM read through the code: every lane
// reads the post-correction data, and per-lane correction/uncorrectable
// events are counted. With no faulty words this is exactly the raw
// logic.GatherROM over the decoded view, fast path included.
func (r *ROM) Gather(addr *[8]uint64) [8]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.faulty == 0 {
		return logic.GatherROM(&r.data, addr)
	}
	var out [8]uint64
	for lane := 0; lane < logic.Lanes; lane++ {
		a := 0
		for bit := 0; bit < 8; bit++ {
			a |= int(addr[bit]>>uint(lane)&1) << uint(bit)
		}
		switch r.status[a] {
		case Corrected:
			r.corrected++
		case Uncorrectable:
			r.uncorrectable++
		}
		w := uint64(r.data[a])
		for bit := 0; bit < 8; bit++ {
			out[bit] |= (w >> uint(bit) & 1) << uint(lane)
		}
	}
	return out
}

// Read decodes a single word, counting correction events like Gather.
func (r *ROM) Read(addr int) (byte, Status) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.status[addr] {
	case Corrected:
		r.corrected++
	case Uncorrectable:
		r.uncorrectable++
	}
	return r.data[addr], r.status[addr]
}

// Scrub visits one word: a valid word is left alone, a correctable word
// is rewritten with its re-encoded corrected value, and the outcome
// distinguishes a repair that took (SEU flushed) from a stuck bit that
// re-asserted and from a multi-bit error the code cannot reconstruct.
func (r *ROM) Scrub(word int) ScrubResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.status[word] {
	case Clean:
		return ScrubClean
	case Uncorrectable:
		return ScrubUncorrectable
	}
	// Correctable: rewrite the array with the corrected codeword and see
	// whether the error comes back through the stuck masks.
	r.code[word] = Encode(r.data[word])
	r.refresh(word)
	if r.status[word] == Clean {
		return ScrubRepaired
	}
	return ScrubHard
}

// FlipBit injects a transient upset: codeword bit `bit` of `word` flips in
// the stored array. The error is corrected on read and repairable by
// Scrub.
func (r *ROM) FlipBit(word, bit int) {
	r.checkWordBit(word, bit)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.code[word] ^= 1 << uint(bit)
	r.refresh(word)
}

// StickBit injects a hard fault: codeword bit `bit` of `word` is forced to
// val and stays forced across rewrites, so a scrub reports it as a hard
// fault instead of repairing it.
func (r *ROM) StickBit(word, bit int, val bool) {
	r.checkWordBit(word, bit)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stuckKnown[word] |= 1 << uint(bit)
	if val {
		r.stuckVal[word] |= 1 << uint(bit)
	} else {
		r.stuckVal[word] &^= 1 << uint(bit)
	}
	r.refresh(word)
}

// CodewordBit reports the effective (post-stuck-mask) value of one stored
// codeword bit — what an injector should invert to plant a real fault.
func (r *ROM) CodewordBit(word, bit int) bool {
	r.checkWordBit(word, bit)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.effective(word)>>uint(bit)&1 != 0
}

func (r *ROM) checkWordBit(word, bit int) {
	if word < 0 || word >= Words || bit < 0 || bit >= CodeBits {
		panic(fmt.Sprintf("edac: %s word %d bit %d out of range", r.name, word, bit))
	}
}

// ClearFaults removes all injected faults: stuck masks are dropped and
// the array is re-encoded from the golden contents.
func (r *ROM) ClearFaults() {
	r.mu.Lock()
	defer r.mu.Unlock()
	moved := false
	for w := 0; w < Words; w++ {
		r.code[w] = Encode(r.golden[w])
		r.stuckKnown[w] = 0
		r.stuckVal[w] = 0
		moved = moved || r.data[w] != r.golden[w] || r.status[w] != Clean
		r.data[w] = r.golden[w]
		r.status[w] = Clean
	}
	r.faulty = 0
	if moved {
		r.moved()
	}
}

// FaultyWords reports how many words currently decode non-Clean.
func (r *ROM) FaultyWords() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.faulty
}

// BadWords lists the currently faulty words with their decode status.
func (r *ROM) BadWords() []BadWord {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.faulty == 0 {
		return nil
	}
	bad := make([]BadWord, 0, r.faulty)
	for w := 0; w < Words; w++ {
		if r.status[w] != Clean {
			bad = append(bad, BadWord{Word: w, Status: r.status[w]})
		}
	}
	return bad
}

// Stats snapshots the store's EDAC counters.
func (r *ROM) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		CorrectedReads:     r.corrected,
		UncorrectableReads: r.uncorrectable,
		FaultyWords:        r.faulty,
	}
}
