package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// record holds one field of every kind the codec has.
type record struct {
	U      uint64
	I      int
	F      float64
	B      bool
	S      string
	Floats []float64
	Ints   []int
	Bools  []bool
	Pairs  []pair
}

type pair struct {
	A, B int
	W    float64
}

func pairCodec(c *Codec, p *pair) {
	c.Int(&p.A)
	c.Int(&p.B)
	c.Float(&p.W)
}

const testMagic = "WTEST\n"

func (r *record) file(c *Codec) {
	c.Header(testMagic, 3)
	c.Uint64(&r.U)
	c.Int(&r.I)
	c.Float(&r.F)
	c.Bool(&r.B)
	c.String(&r.S)
	c.Floats(&r.Floats)
	c.Ints(&r.Ints)
	c.Bools(&r.Bools)
	List(c, &r.Pairs, 3*8, pairCodec)
}

// floatBits are the float64 bit patterns a round trip must keep: both
// zeros, infinities, a quiet and a signalling NaN with payloads, the
// smallest subnormal and the largest finite value.
var floatBits = []uint64{
	0, 1 << 63, 0x7ff0000000000000, 0xfff0000000000000,
	0x7ff8000000000001, 0x7ff0000000000abc, 0xfff8dead0000beef,
	1, 0x7fefffffffffffff, math.Float64bits(math.Pi),
}

func testRecord() *record {
	r := &record{
		U: math.MaxUint64, I: math.MinInt, F: math.Float64frombits(0xfff8dead0000beef), B: true,
		S:     "ünïcode\x00and a NUL",
		Ints:  []int{0, -1, math.MaxInt, math.MinInt, 42},
		Bools: []bool{true, false, false, true},
		Pairs: []pair{{1, 2, math.Copysign(0, -1)}, {-3, 4, math.Inf(-1)}},
	}
	for _, b := range floatBits {
		r.Floats = append(r.Floats, math.Float64frombits(b))
	}
	return r
}

// sameBits compares two records field by field, floats by bit pattern.
func sameBits(t *testing.T, got, want *record) {
	t.Helper()
	fb := func(fs []float64) (out []uint64) {
		for _, f := range fs {
			out = append(out, math.Float64bits(f))
		}
		return out
	}
	if got.U != want.U || got.I != want.I || got.B != want.B || got.S != want.S ||
		math.Float64bits(got.F) != math.Float64bits(want.F) {
		t.Fatalf("scalars differ: got %+v, want %+v", got, want)
	}
	if g, w := fb(got.Floats), fb(want.Floats); !slicesEqual(g, w) {
		t.Fatalf("float bits differ: got %x, want %x", g, w)
	}
	if !slicesEqual(got.Ints, want.Ints) || !slicesEqual(got.Bools, want.Bools) {
		t.Fatalf("lists differ: got %v %v, want %v %v", got.Ints, got.Bools, want.Ints, want.Bools)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("got %d pairs, want %d", len(got.Pairs), len(want.Pairs))
	}
	for i := range got.Pairs {
		g, w := got.Pairs[i], want.Pairs[i]
		if g.A != w.A || g.B != w.B || math.Float64bits(g.W) != math.Float64bits(w.W) {
			t.Fatalf("pair %d: got %+v, want %+v", i, g, w)
		}
	}
}

func slicesEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRoundTripKeepsBits(t *testing.T) {
	want := testRecord()
	data, err := Marshal(want.file)
	if err != nil {
		t.Fatal(err)
	}
	var got record
	if err := Unmarshal(data, got.file); err != nil {
		t.Fatal(err)
	}
	sameBits(t, &got, want)

	// Through a file, with a string longer than the read block so that it
	// and the words after it straddle block boundaries.
	want.S = strings.Repeat("abcdefg", blockSize/3)
	path := filepath.Join(t.TempDir(), "a", "b", "rec.bin")
	if err := WriteFile(path, want.file); err != nil {
		t.Fatal(err)
	}
	got = record{}
	if err := ReadFile(path, got.file); err != nil {
		t.Fatal(err)
	}
	sameBits(t, &got, want)
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if inMemory, _ := Marshal(want.file); !bytes.Equal(onDisk, inMemory) {
		t.Fatal("WriteFile and Marshal encode differently")
	}
}

// TestDecodeReusesCapacity pins that a list decoded into a slice with room
// for it reuses that slice, and that an empty list leaves a nil slice nil.
func TestDecodeReusesCapacity(t *testing.T) {
	data, err := Marshal(testRecord().file)
	if err != nil {
		t.Fatal(err)
	}
	var r record
	r.Floats = make([]float64, 0, 64)
	buf := &r.Floats[:1][0]
	if err := Unmarshal(data, r.file); err != nil {
		t.Fatal(err)
	}
	if &r.Floats[0] != buf {
		t.Error("decoding into a slice with capacity reallocated it")
	}
	empty, err := Marshal((&record{}).file)
	if err != nil {
		t.Fatal(err)
	}
	var e record
	if err := Unmarshal(empty, e.file); err != nil {
		t.Fatal(err)
	}
	if e.Floats != nil || e.Pairs != nil {
		t.Error("an empty list decoded into a non-nil slice")
	}
}

// allocated reports the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLengthOneOverIsRefusedUnallocated pins the length rule for every list
// kind: 2 MiB of elements behind a length word that claims one element more
// is refused, in memory and from a file, having allocated under 1 MiB.
func TestLengthOneOverIsRefusedUnallocated(t *testing.T) {
	const n = 1 << 18
	for _, tc := range []struct {
		name           string
		encode, decode func(*Codec) // code one list: of n elements, into a fresh slice
	}{
		{"string",
			func(c *Codec) { s := strings.Repeat("x", 8*n); c.String(&s) },
			func(c *Codec) { var s string; c.String(&s) }},
		{"floats",
			func(c *Codec) { s := make([]float64, n); c.Floats(&s) },
			func(c *Codec) { var s []float64; c.Floats(&s) }},
		{"ints",
			func(c *Codec) { s := make([]int, n); c.Ints(&s) },
			func(c *Codec) { var s []int; c.Ints(&s) }},
		{"bools",
			func(c *Codec) { s := make([]bool, n); c.Bools(&s) },
			func(c *Codec) { var s []bool; c.Bools(&s) }},
		{"pairs",
			func(c *Codec) { s := make([]pair, n); List(c, &s, 3*8, pairCodec) },
			func(c *Codec) { var s []pair; List(c, &s, 3*8, pairCodec) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := Marshal(tc.encode)
			if err != nil {
				t.Fatal(err)
			}
			if err := Unmarshal(data, tc.decode); err != nil {
				t.Fatalf("the list as written does not decode: %v", err)
			}
			binary.LittleEndian.PutUint64(data, binary.LittleEndian.Uint64(data)+1)
			path := filepath.Join(t.TempDir(), "over.bin")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			for how, decode := range map[string]func() error{
				"Unmarshal": func() error { return Unmarshal(data, tc.decode) },
				"ReadFile":  func() error { return ReadFile(path, tc.decode) },
			} {
				var err error
				if grew := allocated(func() { err = decode() }); grew >= 1<<20 {
					t.Fatalf("%s: refused after allocating %d bytes", how, grew)
				}
				if err == nil || !strings.Contains(err.Error(), "bytes remain") {
					t.Fatalf("%s: a length one element over the input must be refused, got %v", how, err)
				}
			}
		})
	}
}

func TestTrailingBytesRefused(t *testing.T) {
	data, err := Marshal(testRecord().file)
	if err != nil {
		t.Fatal(err)
	}
	var r record
	if err := Unmarshal(append(data, 0), r.file); err == nil || !strings.Contains(err.Error(), "1 bytes after the last field") {
		t.Fatalf("a trailing byte must be refused, got %v", err)
	}
	path := filepath.Join(t.TempDir(), "trail.bin")
	if err := os.WriteFile(path, append(data, make([]byte, 9)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReadFile(path, r.file); err == nil || !strings.Contains(err.Error(), "9 bytes after the last field") {
		t.Fatalf("trailing bytes in a file must be refused, got %v", err)
	}
}

func TestMalformedRefused(t *testing.T) {
	data, err := Marshal(testRecord().file)
	if err != nil {
		t.Fatal(err)
	}
	word := len(testMagic) // offset of the version word
	// A word of 1<<31 is an int on 64-bit platforms and refused on 32-bit
	// ones; want "" means the decode must succeed and keep the value.
	wide := ""
	if strconv.IntSize == 32 {
		wide = "int word 2147483648 does not fit"
	}
	for name, tc := range map[string]struct {
		mutate func([]byte) []byte
		want   string
	}{
		"int word":  {func(b []byte) []byte { binary.LittleEndian.PutUint64(b[word+2*8:], 1<<31); return b }, wide},
		"magic":     {func(b []byte) []byte { b[0] = 'X'; return b }, "magic"},
		"version":   {func(b []byte) []byte { binary.LittleEndian.PutUint64(b[word:], 1); return b }, "version 1"},
		"bool word": {func(b []byte) []byte { binary.LittleEndian.PutUint64(b[word+4*8:], 2); return b }, "bool word is 2"},
		"cut list":  {func(b []byte) []byte { return b[:len(b)-1] }, "bytes remain"},
		"cut word":  {func(b []byte) []byte { return b[:word+4] }, "unexpected EOF"},
		"empty":     {func([]byte) []byte { return nil }, "unexpected EOF"},
	} {
		var r record
		err := Unmarshal(tc.mutate(bytes.Clone(data)), r.file)
		if tc.want == "" {
			if err != nil || int64(r.I) != 1<<31 {
				t.Errorf("%s: got %v with I = %d, want I = %d", name, err, r.I, int64(1<<31))
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestStatedMinimumChecked pins that encoding fails when an element comes
// out shorter than the minimum its list states.
func TestStatedMinimumChecked(t *testing.T) {
	_, err := Marshal(func(c *Codec) {
		s := []pair{{}}
		List(c, &s, 4*8, pairCodec)
	})
	if err == nil || !strings.Contains(err.Error(), "under its stated minimum 32") {
		t.Fatalf("a too-large stated minimum went unnoticed: %v", err)
	}
}

// TestWriteFileFailureKeepsOld pins that a layout that fails leaves the
// previous file in place and no temporary file behind.
func TestWriteFileFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := WriteFile(path, testRecord().file); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := os.ErrInvalid
	if err := WriteFile(path, func(c *Codec) {
		testRecord().file(c)
		c.Fail(boom)
	}); !errors.Is(err, boom) {
		t.Fatalf("WriteFile returned %v, want the layout's error", err)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, old) {
		t.Fatalf("a failed write changed the file (err %v)", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("a failed write left %d entries behind (err %v)", len(entries), err)
	}
}

// FuzzUnmarshal decodes arbitrary bytes as a record: the decoder returns an
// error or a record, never panics, allocates at most twice the input plus
// 1 MiB, and any input it accepts re-encodes to exactly itself.
func FuzzUnmarshal(f *testing.F) {
	data, err := Marshal(testRecord().file)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		var r record
		var err error
		if grew := allocated(func() { err = Unmarshal(data, r.file) }); grew > 2*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		again, err := Marshal(r.file)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently (err %v)", err)
		}
	})
}
