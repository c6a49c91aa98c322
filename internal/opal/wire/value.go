package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sort"
)

// A Codec encodes and decodes the values of one Go type in the wire
// format. It covers the kinds application state is made of, under gob's
// rule that only exported struct fields travel:
//
//	bool                  one byte, 0 or 1
//	signed integers       zigzag varint
//	unsigned integers     uvarint
//	float32, float64      a length byte, then the significant bytes of the
//	                      byte-reversed IEEE bits, big-endian (gob's size:
//	                      integer-valued floats stay short)
//	string                length-prefixed bytes
//	slice, map            uvarint 0 for nil, else length+1, then the
//	                      elements; map entries in ascending order of their
//	                      encoded keys
//	array                 the elements
//	pointer               byte 0 for nil, else 1 and the pointee
//	struct                the exported fields in declaration order
//
// Decoding is strict: every value has exactly one accepted encoding, so
// an accepted input re-encodes to the same bytes, and every count is
// bounded by the bytes left before anything is allocated for it.
type Codec struct {
	typ reflect.Type
	c   *codec
}

// codec is the encoder and decoder of one type. dec always receives a
// settable zero value.
type codec struct {
	enc    func(e *encoder, v reflect.Value)
	dec    func(r *Reader, v reflect.Value)
	minLen int // fewest bytes one encoded value takes
}

// maxDepth bounds how deeply pointers, slices and maps nest in one
// value, so cyclic data fails to encode and hostile input fails to
// decode instead of exhausting the stack.
const maxDepth = 10000

// CodecFor returns the codec for values of type t. It refuses
// interfaces, channels, functions, complex numbers, unsafe pointers and
// structs with no exported fields, naming the path to the offending
// field.
func CodecFor(t reflect.Type) (*Codec, error) {
	b := builder{building: map[reflect.Type]*codec{}}
	c, err := b.build(t, t.String())
	if err != nil {
		return nil, err
	}
	return &Codec{typ: t, c: c}, nil
}

// Append appends the encoding of v, which must be of the codec's type.
// It fails only on data nested deeper than the codec allows (a cycle)
// and on a map whose keys share an encoding (NaN keys).
func (c *Codec) Append(b []byte, v reflect.Value) ([]byte, error) {
	if v.Type() != c.typ {
		return b, fmt.Errorf("wire: encode %s with the codec for %s", v.Type(), c.typ)
	}
	e := encoder{b: b}
	c.c.enc(&e, v)
	return e.b, e.err
}

// Decode reads one value into a fresh zero value of the codec's type and
// returns it, addressable. On a decode error r.Err is set and the value
// is partial.
func (c *Codec) Decode(r *Reader) reflect.Value {
	v := reflect.New(c.typ).Elem()
	c.c.dec(r, v)
	return v
}

type encoder struct {
	b     []byte
	depth int
	err   error
}

func (e *encoder) enter() bool {
	e.depth++
	if e.depth > maxDepth && e.err == nil {
		e.err = fmt.Errorf("wire: value nests deeper than %d (cyclic data?)", maxDepth)
	}
	return e.err == nil
}

func (r *Reader) enter() bool {
	r.depth++
	if r.depth > maxDepth {
		r.Failf("value nests deeper than %d", maxDepth)
	}
	return r.err == nil
}

type builder struct{ building map[reflect.Type]*codec }

func (b *builder) build(t reflect.Type, path string) (*codec, error) {
	if c := b.building[t]; c != nil {
		return c, nil // built, or a recursive type being filled in below
	}
	c := &codec{}
	b.building[t] = c
	switch t.Kind() {
	case reflect.Bool:
		c.minLen = 1
		c.enc = func(e *encoder, v reflect.Value) {
			e.b = append(e.b, b2u(v.Bool()))
		}
		c.dec = func(r *Reader, v reflect.Value) { v.SetBool(r.Bool()) }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.minLen = 1
		c.enc = func(e *encoder, v reflect.Value) { e.b = binary.AppendVarint(e.b, v.Int()) }
		c.dec = func(r *Reader, v reflect.Value) {
			if x := r.Varint(); v.OverflowInt(x) {
				r.Failf("%d overflows %s", x, v.Type())
			} else {
				v.SetInt(x)
			}
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		c.minLen = 1
		c.enc = func(e *encoder, v reflect.Value) { e.b = binary.AppendUvarint(e.b, v.Uint()) }
		c.dec = func(r *Reader, v reflect.Value) {
			if x := r.Uvarint(); v.OverflowUint(x) {
				r.Failf("%d overflows %s", x, v.Type())
			} else {
				v.SetUint(x)
			}
		}
	case reflect.Float64:
		c.minLen = 1
		c.enc = func(e *encoder, v reflect.Value) { e.b = appendFloat64(e.b, v.Float()) }
		c.dec = func(r *Reader, v reflect.Value) { v.SetFloat(readFloat64(r)) }
	case reflect.Float32:
		// Through float32 itself, not Float/SetFloat: widening to
		// float64 would quiet a signalling NaN and change its bits.
		c.minLen = 1
		c.enc = func(e *encoder, v reflect.Value) {
			e.b = appendFloat32(e.b, v.Convert(float32Type).Interface().(float32))
		}
		c.dec = func(r *Reader, v reflect.Value) { v.Set(reflect.ValueOf(readFloat32(r)).Convert(t)) }
	case reflect.String:
		c.minLen = 1
		c.enc = func(e *encoder, v reflect.Value) {
			s := v.String()
			e.b = append(binary.AppendUvarint(e.b, uint64(len(s))), s...)
		}
		c.dec = func(r *Reader, v reflect.Value) { v.SetString(string(r.Bytes())) }
	case reflect.Slice:
		c.minLen = 1
		if enc, dec := numericSlice(t); enc != nil {
			c.enc, c.dec = enc, dec
			break
		}
		elem, err := b.build(t.Elem(), path+"[]")
		if err != nil {
			return nil, err
		}
		c.enc = func(e *encoder, v reflect.Value) {
			if v.IsNil() {
				e.b = append(e.b, 0)
				return
			}
			if e.enter() {
				e.b = binary.AppendUvarint(e.b, uint64(v.Len())+1)
				for i := 0; i < v.Len() && e.err == nil; i++ {
					elem.enc(e, v.Index(i))
				}
			}
			e.depth--
		}
		c.dec = func(r *Reader, v reflect.Value) {
			n := r.nilCount(elem.minLen)
			if n < 0 {
				return
			}
			if r.enter() {
				v.Set(reflect.MakeSlice(t, n, n))
				for i := 0; i < n && r.err == nil; i++ {
					elem.dec(r, v.Index(i))
				}
			}
			r.depth--
		}
	case reflect.Array:
		elem, err := b.build(t.Elem(), path+"[]")
		if err != nil {
			return nil, err
		}
		n := t.Len()
		c.minLen = n * elem.minLen
		c.enc = func(e *encoder, v reflect.Value) {
			for i := 0; i < n && e.err == nil; i++ {
				elem.enc(e, v.Index(i))
			}
		}
		c.dec = func(r *Reader, v reflect.Value) {
			for i := 0; i < n && r.err == nil; i++ {
				elem.dec(r, v.Index(i))
			}
		}
	case reflect.Map:
		c.minLen = 1
		key, err := b.build(t.Key(), path+"[key]")
		if err != nil {
			return nil, err
		}
		val, err := b.build(t.Elem(), path+"[value]")
		if err != nil {
			return nil, err
		}
		c.enc = func(e *encoder, v reflect.Value) {
			if v.IsNil() {
				e.b = append(e.b, 0)
				return
			}
			if e.enter() {
				encodeMap(e, v, key, val)
			}
			e.depth--
		}
		c.dec = func(r *Reader, v reflect.Value) {
			n := r.nilCount(key.minLen + val.minLen)
			if n < 0 {
				return
			}
			if r.enter() {
				m := reflect.MakeMapWithSize(t, n)
				var prev []byte
				for i := 0; i < n && r.err == nil; i++ {
					k, start := reflect.New(t.Key()).Elem(), r.off
					key.dec(r, k)
					if enc := r.buf[start:r.off]; i > 0 && r.err == nil && bytes.Compare(prev, enc) >= 0 {
						r.Failf("map keys out of order")
					} else {
						prev = enc
					}
					x := reflect.New(t.Elem()).Elem()
					val.dec(r, x)
					m.SetMapIndex(k, x)
				}
				v.Set(m)
			}
			r.depth--
		}
	case reflect.Pointer:
		c.minLen = 1
		elem, err := b.build(t.Elem(), path)
		if err != nil {
			return nil, err
		}
		c.enc = func(e *encoder, v reflect.Value) {
			if v.IsNil() {
				e.b = append(e.b, 0)
				return
			}
			e.b = append(e.b, 1)
			if e.enter() {
				elem.enc(e, v.Elem())
			}
			e.depth--
		}
		c.dec = func(r *Reader, v reflect.Value) {
			if !r.Bool() {
				return
			}
			if r.enter() {
				p := reflect.New(t.Elem())
				elem.dec(r, p.Elem())
				v.Set(p)
			}
			r.depth--
		}
	case reflect.Struct:
		var idx []int
		var fields []*codec
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fc, err := b.build(f.Type, path+"."+f.Name)
			if err != nil {
				return nil, err
			}
			idx, fields = append(idx, i), append(fields, fc)
		}
		if len(idx) == 0 {
			return nil, fmt.Errorf("wire: %s: struct %s has no exported fields", path, t)
		}
		c.enc = func(e *encoder, v reflect.Value) {
			for j, fc := range fields {
				fc.enc(e, v.Field(idx[j]))
			}
		}
		c.dec = func(r *Reader, v reflect.Value) {
			for j, fc := range fields {
				fc.dec(r, v.Field(idx[j]))
			}
		}
		// minLen is read at decode time, after recursive fields are built.
		defer func() {
			for _, fc := range fields {
				c.minLen += fc.minLen
			}
		}()
	default: // interface, chan, func, complex, unsafe pointer
		return nil, fmt.Errorf("wire: %s: %s values cannot be encoded", path, t)
	}
	return c, nil
}

// encodeMap writes a non-nil map's length and its entries in ascending
// order of their encoded keys, so equal maps give equal bytes.
func encodeMap(e *encoder, v reflect.Value, key, val *codec) {
	n := v.Len()
	e.b = binary.AppendUvarint(e.b, uint64(n)+1)
	type entry struct {
		key   []byte
		value reflect.Value
	}
	entries := make([]entry, 0, n)
	ends := make([]int, 0, n)
	ke := encoder{depth: e.depth}
	for it := v.MapRange(); it.Next(); {
		key.enc(&ke, it.Key())
		entries, ends = append(entries, entry{value: it.Value()}), append(ends, len(ke.b))
	}
	if ke.err != nil {
		e.err = ke.err
		return
	}
	start := 0
	for i, end := range ends {
		entries[i].key, start = ke.b[start:end], end
	}
	sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })
	for i, en := range entries {
		if i > 0 && bytes.Equal(entries[i-1].key, en.key) {
			e.err = fmt.Errorf("wire: map %s has two keys that encode alike (NaN?)", v.Type())
			return
		}
		e.b = append(e.b, en.key...)
		if val.enc(e, en.value); e.err != nil {
			return
		}
	}
}

var (
	byteType         = reflect.TypeOf(byte(0))
	float32Type      = reflect.TypeOf(float32(0))
	float64Type      = reflect.TypeOf(float64(0))
	float64SliceType = reflect.TypeOf([]float64(nil))
)

// numericSlice returns tight-loop codecs for []byte and []float64 (and
// named types over them), the bulk of a data-bound image, or nils.
func numericSlice(t reflect.Type) (func(*encoder, reflect.Value), func(*Reader, reflect.Value)) {
	switch t.Elem() {
	case byteType:
		return func(e *encoder, v reflect.Value) {
				if v.IsNil() {
					e.b = append(e.b, 0)
					return
				}
				e.b = append(binary.AppendUvarint(e.b, uint64(v.Len())+1), v.Bytes()...)
			}, func(r *Reader, v reflect.Value) {
				if n := r.nilCount(1); n >= 0 {
					v.SetBytes(append(make([]byte, 0, n), r.take(n)...))
				}
			}
	case float64Type:
		return func(e *encoder, v reflect.Value) {
				if v.IsNil() {
					e.b = append(e.b, 0)
					return
				}
				xs := v.Convert(float64SliceType).Interface().([]float64)
				e.b = appendFloat64s(binary.AppendUvarint(e.b, uint64(len(xs))+1), xs)
			}, func(r *Reader, v reflect.Value) {
				if n := r.nilCount(1); n >= 0 {
					xs := make([]float64, n)
					readFloat64s(r, xs)
					v.Set(reflect.ValueOf(xs).Convert(t))
				}
			}
	}
	return nil, nil
}

// appendFloat64s is appendFloat64 over a slice, with the 9-byte store
// inlined: the cells are most of a data-bound image.
func appendFloat64s(b []byte, xs []float64) []byte {
	for _, f := range xs {
		if cap(b)-len(b) < 9 {
			b = appendFloat64(b, f)
			continue
		}
		rev := bits.ReverseBytes64(math.Float64bits(f))
		n := (bits.Len64(rev) + 7) >> 3
		l := len(b)
		b = b[:l+9]
		b[l] = byte(n)
		binary.BigEndian.PutUint64(b[l+1:], rev<<(64-8*n))
		b = b[:l+1+n]
	}
	return b
}

// readFloat64s is readFloat64 over a slice, reading 8 bytes at a time
// where the input allows.
func readFloat64s(r *Reader, xs []float64) {
	buf, off := r.buf, r.off
	for i := range xs {
		if len(buf)-off < 9 {
			r.off = off
			for ; i < len(xs) && r.err == nil; i++ {
				xs[i] = readFloat64(r)
			}
			return
		}
		n := int(buf[off])
		if n > 8 || n > 0 && buf[off+1] == 0 {
			r.off = off
			readFloat64(r) // fails with the reason
			return
		}
		rev := binary.BigEndian.Uint64(buf[off+1:]) >> (64 - 8*n) // 0 when n is 0
		xs[i] = math.Float64frombits(bits.ReverseBytes64(rev))
		off += 1 + n
	}
	r.off = off
}

// appendFloat64 appends f as gob sizes a float: a length byte, then the
// significant bytes of its byte-reversed bits, big-endian.
func appendFloat64(b []byte, f float64) []byte {
	return appendReversed(b, bits.ReverseBytes64(math.Float64bits(f)))
}

// appendFloat32 appends f in the same form from its own 32 bits.
func appendFloat32(b []byte, f float32) []byte {
	return appendReversed(b, uint64(bits.ReverseBytes32(math.Float32bits(f))))
}

// appendReversed writes all 9 bytes at once and keeps the 1+n that
// count.
func appendReversed(b []byte, rev uint64) []byte {
	n := (bits.Len64(rev) + 7) >> 3
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	l := len(b) - 9
	b[l] = byte(n)
	binary.BigEndian.PutUint64(b[l+1:], rev<<(64-8*n))
	return b[:l+1+n]
}

func readFloat64(r *Reader) float64 {
	return math.Float64frombits(bits.ReverseBytes64(r.reversed(8)))
}

func readFloat32(r *Reader) float32 {
	return math.Float32frombits(bits.ReverseBytes32(uint32(r.reversed(4))))
}

// reversed reads what appendReversed wrote for a float of width bytes,
// refusing longer lengths and a leading zero byte.
func (r *Reader) reversed(width int) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.Failf("truncated")
		return 0
	}
	n := int(r.buf[r.off])
	switch {
	case n > width:
		r.Failf("float of %d bytes", n)
		return 0
	case len(r.buf)-r.off-1 < n:
		r.Failf("truncated")
		return 0
	case n > 0 && r.buf[r.off+1] == 0:
		r.Failf("non-canonical float")
		return 0
	}
	var rev uint64
	for _, c := range r.buf[r.off+1 : r.off+1+n] {
		rev = rev<<8 | uint64(c)
	}
	r.off += 1 + n
	return rev
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// nilCount reads a slice or map length written as 0 for nil or length+1,
// returning -1 for nil. The length is bounded like Count's.
func (r *Reader) nilCount(minSize int) int {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return -1
	}
	if left := uint64(len(r.buf) - r.off); n-1 > left/uint64(max(minSize, 1)) {
		r.Failf("count %d exceeds the %d bytes left", n-1, left)
		return -1
	}
	return int(n - 1)
}

// take returns the next n bytes, aliasing the input, or nil on error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf)-r.off < n {
		r.Failf("truncated")
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off : r.off]
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}
