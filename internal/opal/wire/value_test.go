package wire

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// quickValue has one field of every kind the codec carries, and no
// recursion, so testing/quick can fill it.
type quickValue struct {
	B    bool
	I8   int8
	I    int
	I64  int64
	U16  uint16
	U    uint64
	F32  float32
	F    float64
	S    string
	Raw  []byte
	Arr  [3]byte
	Fs   []float64
	F32s []float32
	Is   []int32
	Us   []uint
	Grid [2][2]int16
	M    map[string]int
	FM   map[float64][]bool
	P    *string
	Mine myFloats
	Nest []struct{ A, B int }
}

type myFloats []float64

// fuzzValue adds recursion, an unexported field and a named element
// type to quickValue.
type fuzzValue struct {
	Q      quickValue
	Kids   []fuzzValue
	Next   *fuzzValue
	Named  []myFloat
	hidden int
}

type myFloat float64

func mustCodec(t testing.TB, v any) *Codec {
	t.Helper()
	c, err := CodecFor(reflect.TypeOf(v))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// roundTrip encodes v, decodes the bytes strictly, and returns the
// decoded value and the encoding.
func roundTrip(t testing.TB, c *Codec, v any) (any, []byte) {
	t.Helper()
	b, err := c.Append(nil, reflect.ValueOf(v))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(b)
	got := c.Decode(r)
	if err := r.Close(); err != nil {
		t.Fatalf("decode of %x: %v", b, err)
	}
	return got.Interface(), b
}

// TestValueRoundTrip: random values decode to equal values (nil and
// empty kept apart) and re-encode to the same bytes.
func TestValueRoundTrip(t *testing.T) {
	c := mustCodec(t, quickValue{})
	prop := func(v quickValue) bool {
		got, b := roundTrip(t, c, v)
		again, err := c.Append(nil, reflect.ValueOf(got))
		return err == nil && reflect.DeepEqual(got, v) && bytes.Equal(again, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Recursion, nil against empty, and a field the codec skips.
	v := fuzzValue{
		Q:      quickValue{Raw: []byte{}, Fs: nil, M: map[string]int{}, P: new(string), Us: []uint{}},
		Kids:   []fuzzValue{{Next: &fuzzValue{Named: []myFloat{1.5, 2}}}, {}},
		Named:  []myFloat{},
		hidden: 7,
	}
	got, _ := roundTrip(t, mustCodec(t, v), v)
	v.hidden = 0
	if !reflect.DeepEqual(got, v) {
		t.Errorf("got %+v, want %+v", got, v)
	}
}

// TestFloatForm: a float is a length byte and the significant bytes of
// its byte-reversed bits, so integer-valued floats stay short; NaN
// payloads and negative zero survive, float32 included.
func TestFloatForm(t *testing.T) {
	for _, tc := range []struct {
		f    float64
		want string
	}{
		{0, "\x00"},
		{1, "\x02\xf0\x3f"},
		{2, "\x01\x40"},
		{131071, "\x04\xf0\xff\xff\x40"},
		{math.Copysign(0, -1), "\x01\x80"},
		{0.1, "\x08\x9a\x99\x99\x99\x99\x99\xb9\x3f"},
	} {
		if got := string(appendFloat64(nil, tc.f)); got != tc.want {
			t.Errorf("%v: %x, want %x", tc.f, got, tc.want)
		}
		if got := string(appendFloat64(make([]byte, 0, 16), tc.f)); got != tc.want {
			t.Errorf("%v with room: %x, want %x", tc.f, got, tc.want)
		}
	}
	nan64 := math.Float64frombits(0x7ff0000000000001) // signalling
	nan32 := math.Float32frombits(0x7f800001)
	got, _ := roundTrip(t, mustCodec(t, quickValue{}), quickValue{F: nan64, F32: nan32, F32s: []float32{nan32}})
	q := got.(quickValue)
	if math.Float64bits(q.F) != 0x7ff0000000000001 || math.Float32bits(q.F32) != 0x7f800001 || math.Float32bits(q.F32s[0]) != 0x7f800001 {
		t.Errorf("NaN payloads changed: %x %x %x", math.Float64bits(q.F), math.Float32bits(q.F32), math.Float32bits(q.F32s[0]))
	}
}

// TestMapOrder: map entries are written in ascending order of their
// encoded keys, so equal maps give equal bytes, and a decoder refuses
// any other order.
func TestMapOrder(t *testing.T) {
	m := map[int]string{}
	for i := -50; i < 50; i++ {
		m[i*31] = "v"
	}
	c := mustCodec(t, m)
	first, err := c.Append(nil, reflect.ValueOf(m))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, _ := c.Append(nil, reflect.ValueOf(m))
		if !bytes.Equal(first, again) {
			t.Fatal("the same map encoded two ways")
		}
	}
	two := map[int]bool{1: true, 2: false}
	b, _ := mustCodec(t, two).Append(nil, reflect.ValueOf(two))
	// 03 (2 entries) | 02 01 (key 1, true) | 04 00 (key 2, false)
	swapped := []byte{b[0], b[3], b[4], b[1], b[2]}
	dup := []byte{b[0], b[1], b[2], b[1], b[2]}
	for name, in := range map[string][]byte{"swapped": swapped, "duplicate": dup} {
		r := NewReader(in)
		mustCodec(t, two).Decode(r)
		if r.Close() == nil {
			t.Errorf("%s keys accepted", name)
		}
	}
	nan := map[float64]int{math.NaN(): 1, math.NaN(): 2}
	if _, err := mustCodec(t, nan).Append(nil, reflect.ValueOf(nan)); err == nil {
		t.Error("a map with two NaN keys encoded")
	}
}

// TestValueRejects: each non-canonical or malformed encoding fails.
func TestValueRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		v  any
		in []byte
	}{
		"bool 2":               {false, []byte{2}},
		"int8 overflow":        {int8(0), []byte{0x80, 0x02}},
		"uint16 overflow":      {uint16(0), []byte{0x80, 0x80, 0x04}},
		"int32 slice overflow": {[]int32{}, []byte{2, 0x80, 0x80, 0x80, 0x80, 0x10}},
		"float too long":       {float64(0), []byte{9, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		"float32 too long":     {float32(0), []byte{5, 1, 1, 1, 1, 1}},
		"float leading zero":   {float64(0), []byte{2, 0, 0x40}},
		"float truncated":      {float64(0), []byte{3, 1}},
		"pointer byte 2":       {(*int)(nil), []byte{2, 0}},
		"slice count":          {[]float64{}, []byte{5, 0, 0, 0}},
		"map count":            {map[int]int{}, []byte{3, 0, 0, 0}},
		"bytes truncated":      {[]byte{}, []byte{4, 'a', 'b'}},
		"array truncated":      {[4]byte{}, []byte{1, 2, 3}},
		"string truncated":     {"", []byte{3, 'a'}},
		"trailing":             {0, []byte{0, 0}},
		"non-canonical count":  {[]int{}, []byte{0x81, 0x00, 0}},
	} {
		r := NewReader(tc.in)
		mustCodec(t, tc.v).Decode(r)
		if r.Close() == nil {
			t.Errorf("%s: accepted %x", name, tc.in)
		}
	}
	// Nesting deeper than maxDepth, in data and in hostile input.
	type list struct{ Next *list }
	head := &list{}
	for l, i := head, 0; i < maxDepth+1; i, l = i+1, l.Next {
		l.Next = &list{}
	}
	if _, err := mustCodec(t, list{}).Append(nil, reflect.ValueOf(*head)); err == nil {
		t.Error("a list deeper than maxDepth encoded")
	}
	cyc := &list{}
	cyc.Next = cyc
	if _, err := mustCodec(t, list{}).Append(nil, reflect.ValueOf(*cyc)); err == nil {
		t.Error("a cyclic list encoded")
	}
	deep := append(bytes.Repeat([]byte{1}, maxDepth+1), 0)
	r := NewReader(deep)
	mustCodec(t, list{}).Decode(r)
	if r.Close() == nil {
		t.Error("input nested deeper than maxDepth decoded")
	}
}

// TestCodecForRefuses: kinds the codec cannot carry are refused when
// the codec is built, with the path to the field.
func TestCodecForRefuses(t *testing.T) {
	type noExported struct{ a int }
	type inner struct{ Hidden noExported }
	for want, v := range map[string]any{
		"struct { A interface {} }.A":                    struct{ A any }{},
		"struct { C chan int }.C":                        struct{ C chan int }{},
		"struct { F func() }.F":                          struct{ F func() }{},
		"struct { Z complex64 }.Z":                       struct{ Z complex64 }{},
		"[]map[string]wire.inner[][value].Hidden":        []map[string]inner{},
		"map[wire.noExported]int[key]":                   map[noExported]int{},
		"struct { P *[]chan bool }.P[]":                  struct{ P *[]chan bool }{},
		"wire.noExported: struct wire.noExported has no": noExported{},
	} {
		_, err := CodecFor(reflect.TypeOf(v))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CodecFor(%T): err = %v, want it to contain %q", v, err, want)
		}
	}
	type node struct {
		Kids []node
		Up   *node
	}
	if _, err := CodecFor(reflect.TypeOf(node{})); err != nil {
		t.Errorf("recursive type refused: %v", err)
	}
}

// FuzzValueDecode: no input panics the decoder, an accepted input
// re-encodes to the same bytes, and a decode allocates in proportion to
// its input, never from a count alone.
func FuzzValueDecode(f *testing.F) {
	c := mustCodec(f, fuzzValue{})
	for _, v := range []fuzzValue{
		{},
		{Q: quickValue{B: true, I: -3, F: 2.5, S: "s", Raw: []byte{1}, M: map[string]int{"a": 1, "b": 2}, Fs: []float64{0, 1, 131071}}},
		{Kids: []fuzzValue{{Next: &fuzzValue{}}}, Named: []myFloat{1}},
	} {
		b, err := c.Append(nil, reflect.ValueOf(v))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(data)
		v := c.Decode(r)
		err := r.Close()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 512*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		again, err := c.Append(nil, v)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoded %x, input %x", again, data)
		}
	})
}

// BenchmarkFloat64Slice times the numeric fast path on 131,072 cells of
// an integer ramp.
func BenchmarkFloat64Slice(b *testing.B) {
	xs := make([]float64, 1<<17)
	for i := range xs {
		xs[i] = float64(i)
	}
	c := mustCodec(b, xs)
	buf, _ := c.Append(nil, reflect.ValueOf(xs))
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = c.Append(buf[:0], reflect.ValueOf(xs))
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Decode(NewReader(buf))
		}
	})
}
