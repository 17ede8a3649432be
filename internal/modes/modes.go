// Package modes implements the standard block-cipher modes of operation
// (ECB, CBC, CTR, CFB, OFB), PKCS#7 padding, the CMAC message
// authentication code (NIST SP 800-38B / RFC 4493) and GCM authenticated
// encryption (NIST SP 800-38D) over this repository's from-scratch
// Rijndael cipher — the software half of deploying the paper's IP in a
// real system (the hardware core produces raw block operations; modes turn
// them into usable protocols).
//
// Everything is implemented from first principles on the Block interface;
// the tests cross-check each mode against the Go standard library.
package modes

import (
	"errors"
	"fmt"
)

// Block is the block-cipher surface the modes need (satisfied by
// aes.Cipher and by crypto/cipher.Block implementations).
type Block interface {
	BlockSize() int
	Encrypt(dst, src []byte)
	Decrypt(dst, src []byte)
}

// BatchBlock is optionally implemented by ciphers that can process many
// independent blocks in one call — e.g. a sharded hardware engine fanning
// blocks across replicated cores. dst and src are concatenations of whole
// blocks of equal length. The mode helpers detect BatchBlock and hand all
// independent-block work (ECB, the CTR keystream, CBC and CFB decryption)
// to it in a single call, so those modes parallelize transparently; chained
// modes (CBC encryption, CFB encryption) stay block-by-block because each
// input depends on the previous output.
type BatchBlock interface {
	Block
	// EncryptBlocks encrypts len(src)/BlockSize() independent blocks.
	EncryptBlocks(dst, src []byte) error
	// DecryptBlocks decrypts len(src)/BlockSize() independent blocks.
	DecryptBlocks(dst, src []byte) error
}

// encryptBlocks runs independent blocks through the batch interface when
// the cipher provides one, and block by block otherwise. len(src) must be
// a multiple of the block size.
func encryptBlocks(b Block, dst, src []byte) error {
	if bb, ok := b.(BatchBlock); ok {
		return bb.EncryptBlocks(dst, src)
	}
	bs := b.BlockSize()
	for i := 0; i+bs <= len(src); i += bs {
		b.Encrypt(dst[i:], src[i:])
	}
	return nil
}

// decryptBlocks is the decrypt-direction counterpart of encryptBlocks.
func decryptBlocks(b Block, dst, src []byte) error {
	if bb, ok := b.(BatchBlock); ok {
		return bb.DecryptBlocks(dst, src)
	}
	bs := b.BlockSize()
	for i := 0; i+bs <= len(src); i += bs {
		b.Decrypt(dst[i:], src[i:])
	}
	return nil
}

// xorBytes sets dst = a ^ b over the first n bytes.
func xorBytes(dst, a, b []byte, n int) {
	for i := 0; i < n; i++ {
		dst[i] = a[i] ^ b[i]
	}
}

// PadPKCS7 appends PKCS#7 padding up to the block size.
func PadPKCS7(data []byte, blockSize int) []byte {
	if blockSize <= 0 || blockSize > 255 {
		panic("modes: invalid block size")
	}
	n := blockSize - len(data)%blockSize
	out := make([]byte, len(data)+n)
	copy(out, data)
	for i := len(data); i < len(out); i++ {
		out[i] = byte(n)
	}
	return out
}

// ErrBadPadding is the single error returned for any invalid PKCS#7
// padding content. One sentinel for every content failure (length byte out
// of range, mismatched filler bytes) means the error value itself cannot
// tell an attacker where the check failed.
var ErrBadPadding = errors.New("modes: invalid PKCS#7 padding")

// UnpadPKCS7 removes PKCS#7 padding, validating it fully. The padding
// check is constant-time over the final block: every byte of the last
// block is examined and folded into one accumulated verdict regardless of
// the claimed padding length or where a mismatch sits, so a decrypt+unpad
// pipeline does not hand a CBC padding oracle its timing side channel.
func UnpadPKCS7(data []byte, blockSize int) ([]byte, error) {
	if blockSize <= 0 || blockSize > 255 {
		return nil, fmt.Errorf("modes: invalid block size %d", blockSize)
	}
	if len(data) == 0 || len(data)%blockSize != 0 {
		return nil, fmt.Errorf("modes: padded data length %d invalid", len(data))
	}
	n, ok := pkcs7Verify(data[len(data)-blockSize:])
	if !ok {
		return nil, ErrBadPadding
	}
	return data[:len(data)-n], nil
}

// pkcs7Verify validates the padding of the final block in constant time:
// the loop always walks all len(last) bytes, and each byte contributes to
// the verdict through a data-independent mask (a byte is required to equal
// the padding length exactly when its distance from the end is below that
// length). There is no data-dependent early exit.
func pkcs7Verify(last []byte) (int, bool) {
	bs := len(last)
	n := last[bs-1]
	bad := ctLess(byte(bs), n) | ctEq(n, 0) // n out of [1, blockSize]
	for i := 0; i < bs; i++ {
		inPad := ctLess(byte(i), n) // 1 when last[bs-1-i] is a padding byte
		bad |= inPad &^ ctEq(last[bs-1-i], n)
	}
	if bad != 0 {
		return 0, false
	}
	return int(n), true
}

// ctLess returns 1 when x < y, 0 otherwise, without branching.
func ctLess(x, y byte) byte {
	return byte((uint16(x) - uint16(y)) >> 15)
}

// ctEq returns 1 when x == y, 0 otherwise, without branching.
func ctEq(x, y byte) byte {
	return byte((uint16(x^y) - 1) >> 15)
}

// EncryptECB encrypts src (a multiple of the block size) block by block.
// ECB leaks plaintext structure and exists for test vectors and as the
// primitive the hardware core implements directly.
func EncryptECB(b Block, src []byte) ([]byte, error) {
	bs := b.BlockSize()
	if len(src)%bs != 0 {
		return nil, fmt.Errorf("modes: ECB input %d not a multiple of %d", len(src), bs)
	}
	dst := make([]byte, len(src))
	if err := encryptBlocks(b, dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecryptECB inverts EncryptECB.
func DecryptECB(b Block, src []byte) ([]byte, error) {
	bs := b.BlockSize()
	if len(src)%bs != 0 {
		return nil, fmt.Errorf("modes: ECB input %d not a multiple of %d", len(src), bs)
	}
	dst := make([]byte, len(src))
	if err := decryptBlocks(b, dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// EncryptCBC encrypts src (multiple of the block size) in cipher-block
// chaining mode.
func EncryptCBC(b Block, iv, src []byte) ([]byte, error) {
	bs := b.BlockSize()
	if len(iv) != bs {
		return nil, fmt.Errorf("modes: CBC iv must be %d bytes", bs)
	}
	if len(src)%bs != 0 {
		return nil, fmt.Errorf("modes: CBC input %d not a multiple of %d", len(src), bs)
	}
	dst := make([]byte, len(src))
	prev := iv
	tmp := make([]byte, bs)
	for i := 0; i < len(src); i += bs {
		xorBytes(tmp, src[i:], prev, bs)
		b.Encrypt(dst[i:], tmp)
		prev = dst[i : i+bs]
	}
	return dst, nil
}

// DecryptCBC inverts EncryptCBC. Unlike encryption, CBC decryption has no
// chained dependency — every plaintext block is D(C_i) XOR C_{i-1} with
// both operands known up front — so the block decrypts are handed to the
// cipher as one independent batch (parallel on a BatchBlock) before the
// XOR pass.
func DecryptCBC(b Block, iv, src []byte) ([]byte, error) {
	bs := b.BlockSize()
	if len(iv) != bs {
		return nil, fmt.Errorf("modes: CBC iv must be %d bytes", bs)
	}
	if len(src)%bs != 0 {
		return nil, fmt.Errorf("modes: CBC input %d not a multiple of %d", len(src), bs)
	}
	dst := make([]byte, len(src))
	if err := decryptBlocks(b, dst, src); err != nil {
		return nil, err
	}
	prev := iv
	for i := 0; i < len(src); i += bs {
		xorBytes(dst[i:], dst[i:], prev, bs)
		prev = src[i : i+bs]
	}
	return dst, nil
}

// CTRStream XORs src with the counter-mode keystream derived from iv
// (big-endian increment over the whole block). Encryption and decryption
// are the same operation; src may be any length.
func CTRStream(b Block, iv, src []byte) ([]byte, error) { return ctr(b, iv, src, incCounter) }

// ctr is counter mode with the counter increment inc: every counter block
// is known up front, so the whole keystream is one independent batch (a
// BatchBlock fans it out across hardware shards) before the XOR pass.
func ctr(b Block, iv, src []byte, inc func([]byte)) ([]byte, error) {
	bs := b.BlockSize()
	if len(iv) != bs {
		return nil, fmt.Errorf("modes: CTR iv must be %d bytes", bs)
	}
	nblocks := (len(src) + bs - 1) / bs
	counters := make([]byte, nblocks*bs)
	counter := append([]byte(nil), iv...)
	for i := 0; i < nblocks; i++ {
		copy(counters[i*bs:], counter)
		inc(counter)
	}
	ks := make([]byte, nblocks*bs)
	if err := encryptBlocks(b, ks, counters); err != nil {
		return nil, err
	}
	dst := make([]byte, len(src))
	xorBytes(dst, src, ks, len(src))
	return dst, nil
}

// incCounter increments a big-endian counter block in place.
func incCounter(c []byte) {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]++
		if c[i] != 0 {
			return
		}
	}
}

// EncryptCFB encrypts src in full-block cipher feedback mode (any length).
func EncryptCFB(b Block, iv, src []byte) ([]byte, error) {
	bs := b.BlockSize()
	if len(iv) != bs {
		return nil, fmt.Errorf("modes: CFB iv must be %d bytes", bs)
	}
	dst := make([]byte, len(src))
	shift := append([]byte(nil), iv...)
	ks := make([]byte, bs)
	for i := 0; i < len(src); i += bs {
		b.Encrypt(ks, shift)
		n := len(src) - i
		if n > bs {
			n = bs
		}
		xorBytes(dst[i:], src[i:], ks, n)
		copy(shift, dst[i:i+n])
		if n < bs {
			break
		}
	}
	return dst, nil
}

// DecryptCFB inverts EncryptCFB. Unlike encryption, it has no chained
// dependency: every keystream input is known up front — the IV, then each
// full ciphertext block but the last — so the keystream is handed to the
// cipher as one independent batch (parallel on a BatchBlock) before the
// XOR pass, as in DecryptCBC.
func DecryptCFB(b Block, iv, src []byte) ([]byte, error) {
	bs := b.BlockSize()
	if len(iv) != bs {
		return nil, fmt.Errorf("modes: CFB iv must be %d bytes", bs)
	}
	dst := make([]byte, len(src))
	if len(src) == 0 {
		return dst, nil
	}
	nblocks := (len(src) + bs - 1) / bs
	in := make([]byte, nblocks*bs)
	copy(in, iv)
	copy(in[bs:], src[:(nblocks-1)*bs])
	ks := make([]byte, nblocks*bs)
	if err := encryptBlocks(b, ks, in); err != nil {
		return nil, err
	}
	xorBytes(dst, src, ks, len(src))
	return dst, nil
}

// OFBStream XORs src with the output feedback keystream (any length;
// encryption == decryption).
func OFBStream(b Block, iv, src []byte) ([]byte, error) {
	bs := b.BlockSize()
	if len(iv) != bs {
		return nil, fmt.Errorf("modes: OFB iv must be %d bytes", bs)
	}
	dst := make([]byte, len(src))
	ks := append([]byte(nil), iv...)
	for i := 0; i < len(src); i += bs {
		b.Encrypt(ks, ks)
		n := len(src) - i
		if n > bs {
			n = bs
		}
		xorBytes(dst[i:], src[i:], ks, n)
	}
	return dst, nil
}
