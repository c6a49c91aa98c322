package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestRoundTrip: every value Append* writes reads back, and the reader
// ends exactly at the end of the buffer.
func TestRoundTrip(t *testing.T) {
	ints := []int{0, 1, -1, 63, -64, 64, math.MaxInt32, math.MinInt64, math.MaxInt64}
	var b []byte
	for _, v := range ints {
		b = AppendInt(b, v)
	}
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = AppendBytes(b, []byte("blob"))
	b = AppendBytes(b, nil)
	b = append(b, 1, 0)
	r := NewReader(b)
	for _, want := range ints {
		if got := r.Int(); got != want {
			t.Errorf("Int = %d, want %d", got, want)
		}
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte("blob")) {
		t.Errorf("Bytes = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %q", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool pair misread")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRejects: each malformed input fails, and the first error sticks.
func TestRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		in   []byte
		read func(r *Reader)
	}{
		"truncated varint":     {[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		"overflowing varint":   {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.Uvarint() }},
		"non-canonical varint": {[]byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }},
		"empty byte":           {nil, func(r *Reader) { r.Byte() }},
		"bad bool":             {[]byte{2}, func(r *Reader) { r.Bool() }},
		"oversized count":      {[]byte{0x05, 1, 2, 3, 4}, func(r *Reader) { r.Count(1) }},
		"count of wide items":  {[]byte{0x02, 1, 2, 3}, func(r *Reader) { r.Count(2) }},
		"blob past the end":    {[]byte{0x03, 'a', 'b'}, func(r *Reader) { r.Bytes() }},
		"trailing byte":        {[]byte{0x01, 0x00}, func(r *Reader) { r.Uvarint() }},
	} {
		r := NewReader(tc.in)
		tc.read(r)
		if r.Close() == nil {
			t.Errorf("%s: accepted %x", name, tc.in)
		}
		if r.Uvarint() != 0 || r.Bytes() != nil || r.Count(1) != 0 {
			t.Errorf("%s: reads after an error return values", name)
		}
	}
}
