package jitcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// Key is a 256-bit content address.
type Key [sha256.Size]byte

// String returns the key in lowercase hex (the on-disk object name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hasher derives a Key from a sequence of typed fields. Every variable-
// length field is length-prefixed and every fixed-width field has a fixed
// encoding, so distinct field sequences can never collide by concatenation
// ("ab","c" vs "a","bc"). The domain string separates key namespaces (e.g.
// "nvbitgo/code/v2", core's code objects) and doubles as the schema version:
// bumping it invalidates every existing entry without touching the store.
//
// Fields collect in a buffer of whole SHA-256 blocks that is handed to the
// hash when full: a key is thousands of small fields, and the digest is that
// of the same bytes written one field at a time.
type Hasher struct {
	h   hash.Hash
	n   int // bytes of buf in use
	buf [8 * sha256.BlockSize]byte
}

// NewHasher starts a fingerprint in the given domain.
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.String(domain)
	return h
}

func (h *Hasher) flush() {
	h.h.Write(h.buf[:h.n])
	h.n = 0
}

// write appends the bytes of b, a string or a byte slice.
func write[T string | []byte](h *Hasher, b T) {
	for len(b) > 0 {
		if h.n == len(h.buf) {
			h.flush()
		}
		k := copy(h.buf[h.n:], b)
		h.n += k
		b = b[k:]
	}
}

// Uint64 appends a fixed-width unsigned field.
func (h *Hasher) Uint64(v uint64) {
	if h.n+8 > len(h.buf) {
		// The field straddles the end of the buffer.
		var f [8]byte
		binary.LittleEndian.PutUint64(f[:], v)
		write(h, f[:])
		return
	}
	binary.LittleEndian.PutUint64(h.buf[h.n:], v)
	h.n += 8
}

// Uint32 appends a four-byte field, for a value whose type or origin bounds it
// below 1<<32.
func (h *Hasher) Uint32(v uint32) {
	if h.n+4 > len(h.buf) {
		h.flush() // short of a whole block; the hash buffers the remainder
	}
	binary.LittleEndian.PutUint32(h.buf[h.n:], v)
	h.n += 4
}

// Uint8 appends a one-byte field: a flag or a small enumeration.
func (h *Hasher) Uint8(v uint8) {
	if h.n == len(h.buf) {
		h.flush()
	}
	h.buf[h.n] = v
	h.n++
}

// Int appends a fixed-width signed field.
func (h *Hasher) Int(v int) { h.Uint64(uint64(int64(v))) }

// Bool appends a boolean field.
func (h *Hasher) Bool(v bool) {
	if v {
		h.Uint64(1)
	} else {
		h.Uint64(0)
	}
}

// Bytes appends a length-prefixed variable-length field.
func (h *Hasher) Bytes(b []byte) {
	h.Uint64(uint64(len(b)))
	write(h, b)
}

// String appends a length-prefixed string field.
func (h *Hasher) String(s string) {
	h.Uint64(uint64(len(s)))
	write(h, s)
}

// Sum finalizes the fingerprint. The Hasher must not be reused after Sum.
func (h *Hasher) Sum() Key {
	h.flush()
	var k Key
	h.h.Sum(k[:0])
	return k
}
