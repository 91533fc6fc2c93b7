// Package wire is the binary codec behind every file the project saves. A
// layout is a function of *Codec that names each field once, in order; the
// same function encodes when the codec writes and decodes when it reads, so
// the two directions cannot drift apart.
//
// Every value is a little-endian 64-bit word: an int as its two's
// complement, a float as its IEEE-754 bits (so a round trip is
// bit-identical, NaN payloads and -0 included), a bool as 0 or 1. A string
// or list is a length word followed by its contents.
//
// A decoder always knows how many bytes its input holds: a file's size or a
// byte slice's length. A length word whose elements, each at its smallest
// encoding, would need more bytes than remain is refused before anything is
// allocated; any other list is allocated once, at its exact length, reusing
// the destination's capacity when it suffices. Bytes left after the last
// field are refused. So a corrupt input fails having allocated at most a
// small multiple of its own size.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// blockSize is the read block a file is decoded through and the write
// buffer a file is encoded through.
const blockSize = 1 << 16

// Codec is one direction of a layout: an encoder over a buffered writer or
// a decoder over an input of known length. The first error sticks and makes
// every later field a no-op, so a layout need not check between fields.
type Codec struct {
	w       *bufio.Writer // the encoder's sink; nil when decoding
	written int64         // bytes encoded so far

	r     io.Reader // where input beyond rest comes from; nil in memory
	left  int64     // input bytes not yet read into rest
	block []byte    // the fixed read block rest is cut from
	rest  []byte    // input read but not yet decoded

	word [8]byte
	err  error
}

// Decoding reports whether c reads. Layouts branch on it only where the
// decoded form must be rebuilt rather than filled in field by field.
func (c *Codec) Decoding() bool { return c.w == nil }

// Fail records err as the codec's error unless it already has one, and
// drops the input left to decode.
func (c *Codec) Fail(err error) {
	if c.err == nil && err != nil {
		c.err = err
		c.left, c.rest = 0, nil
	}
}

// remaining is how many input bytes are left to decode.
func (c *Codec) remaining() int64 { return c.left + int64(len(c.rest)) }

// refill moves the undecoded bytes to the front of the block and reads as
// many more as fit.
func (c *Codec) refill() {
	k := copy(c.block, c.rest)
	m := int(min(int64(len(c.block)-k), c.left))
	if _, err := io.ReadFull(c.r, c.block[k:k+m]); err != nil {
		c.Fail(err)
		return
	}
	c.left -= int64(m)
	c.rest = c.block[:k+m]
}

// take returns the next n input bytes (a word or a magic string, so
// n ≤ blockSize), or nil once the codec has failed.
func (c *Codec) take(n int) []byte {
	if len(c.rest) < n && c.err == nil {
		if int64(n) > c.remaining() {
			c.Fail(io.ErrUnexpectedEOF)
		} else {
			c.refill()
		}
	}
	if c.err != nil {
		return nil
	}
	p := c.rest[:n]
	c.rest = c.rest[n:]
	return p
}

func (c *Codec) writeString(s string) {
	if c.err == nil {
		_, c.err = c.w.WriteString(s)
		c.written += int64(len(s))
	}
}

func (c *Codec) put(v uint64) {
	if c.err == nil {
		binary.LittleEndian.PutUint64(c.word[:], v)
		_, c.err = c.w.Write(c.word[:])
		c.written += 8
	}
}

func (c *Codec) get() uint64 {
	if len(c.rest) >= 8 { // a failed codec has no rest
		v := binary.LittleEndian.Uint64(c.rest)
		c.rest = c.rest[8:]
		return v
	}
	if p := c.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Uint64 codes *v as one word.
func (c *Codec) Uint64(v *uint64) {
	if c.w != nil {
		c.put(*v)
		return
	}
	*v = c.get()
}

// Int codes *v as one word; decoding refuses a word the platform's int
// cannot hold, rather than wrapping it.
func (c *Codec) Int(v *int) {
	if c.w != nil {
		c.put(uint64(*v))
		return
	}
	x := int64(c.get())
	if int64(int(x)) != x {
		c.Fail(fmt.Errorf("wire: int word %d does not fit in an int", x))
	}
	*v = int(x)
}

// Float codes *v as its IEEE-754 bits.
func (c *Codec) Float(v *float64) {
	if c.w != nil {
		c.put(math.Float64bits(*v))
		return
	}
	*v = math.Float64frombits(c.get())
}

// Bool codes *v as 0 or 1; decoding refuses any other word.
func (c *Codec) Bool(v *bool) {
	if c.w != nil {
		if *v {
			c.put(1)
		} else {
			c.put(0)
		}
		return
	}
	u := c.get()
	if u > 1 {
		c.Fail(fmt.Errorf("wire: bool word is %d", u))
	}
	*v = u == 1
}

// length codes the length word of n elements of at least minSize bytes
// each, refusing on decode a length the remaining input cannot hold.
func (c *Codec) length(n *int, minSize int) {
	if c.w != nil {
		c.put(uint64(*n))
		return
	}
	u := c.get()
	if rem := c.remaining(); c.err == nil && u > uint64(rem)/uint64(minSize) {
		c.Fail(fmt.Errorf("wire: %d elements of at least %d bytes, %d bytes remain", u, minSize, rem))
	}
	*n = int(u)
}

// String codes *s as a length word and its bytes.
func (c *Codec) String(s *string) {
	n := len(*s)
	c.length(&n, 1)
	if c.w != nil {
		c.writeString(*s)
		return
	}
	if c.err != nil {
		return
	}
	var b strings.Builder
	b.Grow(n)
	for b.Len() < n && c.err == nil {
		if len(c.rest) == 0 {
			c.refill()
		}
		k := min(n-b.Len(), len(c.rest))
		b.Write(c.rest[:k])
		c.rest = c.rest[k:]
	}
	*s = b.String()
}

// List codes *s as a length word and then each element through elem.
// minSize is the fewest bytes elem encodes an element to; encoding fails if
// an element comes out shorter, so a stated minimum is checked by every
// round trip.
func List[T any](c *Codec, s *[]T, minSize int, elem func(*Codec, *T)) {
	n := len(*s)
	c.length(&n, minSize)
	if c.err != nil {
		return
	}
	if c.w == nil {
		if n <= cap(*s) {
			*s = (*s)[:n]
		} else {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		start := c.written
		elem(c, &(*s)[i])
		if c.w != nil && c.err == nil && c.written-start < int64(minSize) {
			c.Fail(fmt.Errorf("wire: an element encoded to %d bytes, under its stated minimum %d", c.written-start, minSize))
		}
		if c.err != nil {
			return
		}
	}
}

// Floats codes a list of floats.
func (c *Codec) Floats(s *[]float64) { List(c, s, 8, (*Codec).Float) }

// Ints codes a list of ints.
func (c *Codec) Ints(s *[]int) { List(c, s, 8, (*Codec).Int) }

// Bools codes a list of bools.
func (c *Codec) Bools(s *[]bool) { List(c, s, 8, (*Codec).Bool) }

// Header codes a file's magic string and format version. Decoding refuses
// any other magic, and any other version with an error that names it.
func (c *Codec) Header(magic string, version uint64) {
	if c.w != nil {
		c.writeString(magic)
		c.put(version)
		return
	}
	if p := c.take(len(magic)); c.err == nil && string(p) != magic {
		c.Fail(fmt.Errorf("wire: magic %q, want %q", p, magic))
	}
	if v := c.get(); c.err == nil && v != version {
		c.Fail(fmt.Errorf("wire: unsupported version %d, want %d", v, version))
	}
}

// decode runs layout over c's input and refuses bytes it leaves over.
func (c *Codec) decode(layout func(*Codec)) error {
	layout(c)
	if rem := c.remaining(); c.err == nil && rem != 0 {
		c.Fail(fmt.Errorf("wire: %d bytes after the last field", rem))
	}
	return c.err
}

// Marshal encodes through layout into a new byte slice.
func Marshal(layout func(*Codec)) ([]byte, error) {
	var buf bytes.Buffer
	c := &Codec{w: bufio.NewWriter(&buf)}
	layout(c)
	c.Fail(c.w.Flush())
	return buf.Bytes(), c.err
}

// Unmarshal decodes data through layout.
func Unmarshal(data []byte, layout func(*Codec)) error {
	return (&Codec{rest: data}).decode(layout)
}

// ReadFile decodes the file at path through layout, reading it through one
// fixed block rather than holding the whole file in memory.
func ReadFile(path string, layout func(*Codec)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	c := &Codec{r: f, left: fi.Size(), block: make([]byte, blockSize)}
	return c.decode(layout)
}

// WriteFile encodes through layout into path atomically: it creates path's
// directory, writes a temporary file beside path through a buffer, flushes,
// fsyncs and closes it, then renames it over path. On any error the
// temporary file is removed and path is left as it was.
func WriteFile(path string, layout func(*Codec)) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	c := &Codec{w: bufio.NewWriterSize(tmp, blockSize)}
	layout(c)
	c.Fail(c.w.Flush())
	if c.err == nil {
		c.err = tmp.Sync()
	}
	c.Fail(tmp.Close())
	if c.err == nil {
		c.err = os.Rename(tmp.Name(), path)
	}
	if c.err != nil {
		os.Remove(tmp.Name())
	}
	return c.err
}
