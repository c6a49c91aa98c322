// Package wire is the strict binary codec shared by the process image
// and the CRCP control messages: unsigned and zigzag varints in their
// shortest form, length-prefixed blobs, element counts bounded by the
// bytes left, and no trailing bytes. Encoding is plain append-style
// (binary.AppendUvarint and friends plus AppendBytes); decoding goes
// through a Reader that remembers its first error, so a decoder reads a
// whole layout and checks once at the end. A Codec (value.go) writes
// and reads whole Go values of one type in the same style.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// AppendInt appends v as a zigzag varint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendBytes appends blob with a uvarint length prefix.
func AppendBytes(b, blob []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(blob))), blob...)
}

// Reader decodes a byte slice front to back. After the first error every
// read returns a zero value and Err reports that error.
type Reader struct {
	buf   []byte
	off   int
	err   error
	depth int // nesting of the value being decoded (value.go)
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Failf records a decode error (the first one wins).
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("at byte %d: "+format, append([]any{r.off}, args...)...)
	}
}

// Err returns the first decode error.
func (r *Reader) Err() error { return r.err }

// Close returns the first decode error, or an error when bytes are left
// unread.
func (r *Reader) Close() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Failf("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

var errVarint = errors.New("truncated or overflowing varint")

// Uvarint reads an unsigned varint, rejecting non-shortest encodings.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n <= 0:
		r.Failf("%v", errVarint)
		return 0
	case n > 1 && r.buf[r.off+n-1] == 0:
		r.Failf("non-canonical varint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a zigzag varint that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Failf("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.Failf("truncated")
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch b := r.Byte(); b {
	case 0, 1:
		return b == 1
	default:
		r.Failf("bad bool byte %d", b)
		return false
	}
}

// Count reads an element count and checks that count elements of at
// least minSize bytes each fit in what is left, so a corrupt count can
// never size an allocation.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if left := uint64(len(r.buf) - r.off); r.err == nil && n > left/uint64(max(minSize, 1)) {
		r.Failf("count %d exceeds the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed blob. The result aliases the input.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off : r.off]
}
