package modes

import (
	"encoding/binary"
	"fmt"
)

// GCM implements Galois/Counter Mode (NIST SP 800-38D) over a 128-bit
// block cipher, with the standard 12-byte nonce and 16-byte tag. GHASH is
// implemented from first principles in GF(2^128) with the reflected bit
// convention of the specification.
type GCM struct {
	b Block
	h gcmFieldElement // hash subkey H = E(0^128)
}

// gcmFieldElement holds a GF(2^128) element as two big-endian halves; bit
// 0 of the field (coefficient of x^0) is the most significant bit of hi,
// per the GCM specification's reflected ordering.
type gcmFieldElement struct {
	hi, lo uint64
}

// NonceSize is the standard GCM nonce length.
const NonceSize = 12

// TagSize is the standard GCM tag length.
const TagSize = 16

// NewGCM wraps a 128-bit block cipher in GCM.
func NewGCM(b Block) (*GCM, error) {
	if b.BlockSize() != 16 {
		return nil, fmt.Errorf("modes: GCM requires a 128-bit block cipher")
	}
	var zero, h [16]byte
	b.Encrypt(h[:], zero[:])
	return &GCM{
		b: b,
		h: gcmFieldElement{binary.BigEndian.Uint64(h[0:8]), binary.BigEndian.Uint64(h[8:16])},
	}, nil
}

// mul multiplies two field elements in GF(2^128) (right-shift algorithm of
// SP 800-38D §6.3 with R = 0xE1 << 120).
func gcmMul(x, y gcmFieldElement) gcmFieldElement {
	var z gcmFieldElement
	v := y
	for i := 0; i < 128; i++ {
		var bit uint64
		if i < 64 {
			bit = x.hi >> (63 - uint(i)) & 1
		} else {
			bit = x.lo >> (127 - uint(i)) & 1
		}
		if bit != 0 {
			z.hi ^= v.hi
			z.lo ^= v.lo
		}
		lsb := v.lo & 1
		v.lo = v.lo>>1 | v.hi<<63
		v.hi >>= 1
		if lsb != 0 {
			v.hi ^= 0xE100000000000000
		}
	}
	return z
}

// ghashUpdate absorbs one 16-byte block into the GHASH state.
func (g *GCM) ghashUpdate(y *gcmFieldElement, block []byte) {
	y.hi ^= binary.BigEndian.Uint64(block[0:8])
	y.lo ^= binary.BigEndian.Uint64(block[8:16])
	*y = gcmMul(*y, g.h)
}

// ghashPadded absorbs data, zero-padding the final partial block.
func (g *GCM) ghashPadded(y *gcmFieldElement, data []byte) {
	for len(data) >= 16 {
		g.ghashUpdate(y, data[:16])
		data = data[16:]
	}
	if len(data) > 0 {
		var last [16]byte
		copy(last[:], data)
		g.ghashUpdate(y, last[:])
	}
}

// ghash computes GHASH(additional data, ciphertext) including the length
// block.
func (g *GCM) ghash(aad, ct []byte) [16]byte {
	var y gcmFieldElement
	g.ghashPadded(&y, aad)
	g.ghashPadded(&y, ct)
	var lens [16]byte
	binary.BigEndian.PutUint64(lens[0:8], uint64(len(aad))*8)
	binary.BigEndian.PutUint64(lens[8:16], uint64(len(ct))*8)
	g.ghashUpdate(&y, lens[:])
	var out [16]byte
	binary.BigEndian.PutUint64(out[0:8], y.hi)
	binary.BigEndian.PutUint64(out[8:16], y.lo)
	return out
}

// counterBlock builds J0 for a 96-bit nonce: nonce || 0^31 || 1.
func counterBlock(nonce []byte) [16]byte {
	var j0 [16]byte
	copy(j0[:12], nonce)
	j0[15] = 1
	return j0
}

// Seal encrypts plaintext with the nonce and authenticates aad, returning
// ciphertext || tag.
func (g *GCM) Seal(nonce, plaintext, aad []byte) ([]byte, error) {
	if len(nonce) != NonceSize {
		return nil, fmt.Errorf("modes: GCM nonce must be %d bytes", NonceSize)
	}
	j0 := counterBlock(nonce)
	ctr := j0
	incCounter32(ctr[:])
	ct, err := CTRStream32(g.b, ctr[:], plaintext)
	if err != nil {
		return nil, err
	}
	s := g.ghash(aad, ct)
	var ekj0 [16]byte
	g.b.Encrypt(ekj0[:], j0[:])
	tag := make([]byte, TagSize)
	xorBytes(tag, s[:], ekj0[:], TagSize)
	return append(ct, tag...), nil
}

// Open authenticates and decrypts ciphertext || tag.
func (g *GCM) Open(nonce, sealed, aad []byte) ([]byte, error) {
	if len(nonce) != NonceSize {
		return nil, fmt.Errorf("modes: GCM nonce must be %d bytes", NonceSize)
	}
	if len(sealed) < TagSize {
		return nil, fmt.Errorf("modes: GCM message too short")
	}
	ct := sealed[:len(sealed)-TagSize]
	tag := sealed[len(sealed)-TagSize:]
	j0 := counterBlock(nonce)
	s := g.ghash(aad, ct)
	var ekj0 [16]byte
	g.b.Encrypt(ekj0[:], j0[:])
	var diff byte
	for i := 0; i < TagSize; i++ {
		diff |= tag[i] ^ s[i] ^ ekj0[i]
	}
	if diff != 0 {
		return nil, fmt.Errorf("modes: GCM authentication failed")
	}
	ctr := j0
	incCounter32(ctr[:])
	return CTRStream32(g.b, ctr[:], ct)
}

// incCounter32 increments only the final 32 bits of the counter block, as
// GCM's inc32 requires.
func incCounter32(c []byte) {
	n := binary.BigEndian.Uint32(c[12:16]) + 1
	binary.BigEndian.PutUint32(c[12:16], n)
}

// CTRStream32 is counter mode with GCM's 32-bit counter increment.
func CTRStream32(b Block, iv, src []byte) ([]byte, error) { return ctr(b, iv, src, incCounter32) }
