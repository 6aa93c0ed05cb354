package obs

import (
	"errors"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// This file is the package's one JSON writer. The profile and
// critical-path documents are written through jw as indented JSON that
// is byte-identical to encoding/json's Encoder with SetIndent("", "  "),
// and the Chrome trace appends its compact events into the same kind of
// buffer. A document streams to its io.Writer through one bounded
// buffer, flushed at element boundaries, so rendering costs a constant
// number of allocations whatever the document's size.

// jwBufSize is the capacity of a writer's buffer; jwFlushAt is the fill
// at which the next element boundary flushes it, leaving room for one
// element without growing.
const (
	jwBufSize = 8 << 10
	jwFlushAt = jwBufSize - 512
)

// jw appends JSON into buf and flushes it to w. A nil w never flushes:
// the whole document accumulates in buf (MarshalJSON's form). The
// first error, from a value or from w, sticks; nothing is written to w
// after it, so a failed document may be truncated.
type jw struct {
	w          io.Writer
	buf        []byte
	err        error
	escapeHTML bool
	// depth is the nesting level of the indented form; empty is true
	// between an opening brace or bracket and the container's first
	// element, so an empty container closes as "{}" or "[]".
	depth int
	empty bool
}

func newJW(w io.Writer, escapeHTML bool) *jw {
	return &jw{w: w, buf: make([]byte, 0, jwBufSize), escapeHTML: escapeHTML}
}

// flush hands the buffer to w and empties it.
func (j *jw) flush() {
	if j.w == nil {
		return
	}
	if j.err == nil && len(j.buf) > 0 {
		_, j.err = j.w.Write(j.buf)
	}
	j.buf = j.buf[:0]
}

// boundary flushes a buffer that is nearly full. Callers place it
// between elements.
func (j *jw) boundary() {
	if len(j.buf) >= jwFlushAt {
		j.flush()
	}
}

// finish ends a streamed document: it flushes what is buffered and
// returns the first error.
func (j *jw) finish() error {
	j.flush()
	return j.err
}

// bytes returns a document built with a nil writer.
func (j *jw) bytes() ([]byte, error) {
	if j.err != nil {
		return nil, j.err
	}
	return j.buf, nil
}

func (j *jw) raw(s string) { j.buf = append(j.buf, s...) }

// newline starts a line indented to the current depth.
func (j *jw) newline() {
	j.buf = append(j.buf, '\n')
	for i := 0; i < j.depth; i++ {
		j.buf = append(j.buf, "  "...)
	}
}

// next separates the next element of the open container from the one
// before it.
func (j *jw) next() {
	j.boundary()
	if j.empty {
		j.empty = false
	} else {
		j.buf = append(j.buf, ',')
	}
	j.newline()
}

// key starts an object member; the member's value follows. Keys are
// the package's own plain ASCII names and need no escaping.
func (j *jw) key(k string) *jw {
	j.next()
	j.buf = append(j.buf, '"')
	j.buf = append(j.buf, k...)
	j.buf = append(j.buf, '"', ':', ' ')
	return j
}

// elem starts an array element; the element's value follows.
func (j *jw) elem() *jw {
	j.next()
	return j
}

func (j *jw) open(c byte) {
	j.buf = append(j.buf, c)
	j.depth++
	j.empty = true
}

func (j *jw) close(c byte) {
	j.depth--
	if !j.empty {
		j.newline()
	}
	j.buf = append(j.buf, c)
	j.empty = false
}

func (j *jw) beginObject() { j.open('{') }
func (j *jw) endObject()   { j.close('}') }
func (j *jw) beginArray()  { j.open('[') }
func (j *jw) endArray()    { j.close(']') }

func (j *jw) str(s string) { j.buf = appendJSONString(j.buf, s, j.escapeHTML) }
func (j *jw) int(n int64)  { j.buf = strconv.AppendInt(j.buf, n, 10) }
func (j *jw) bool(b bool)  { j.buf = strconv.AppendBool(j.buf, b) }

func (j *jw) float(f float64) {
	var err error
	j.buf, err = appendJSONFloat(j.buf, f)
	if err != nil && j.err == nil {
		j.err = err
	}
}

// bucketFields writes the four attribution classes, each times scale,
// as fields of the open object under Buckets' JSON names.
func (j *jw) bucketFields(b Buckets, scale float64) {
	j.key("compute_us").float(float64(b.Compute) * scale)
	j.key("startup_us").float(float64(b.Startup) * scale)
	j.key("transfer_us").float(float64(b.Transfer) * scale)
	j.key("idle_us").float(float64(b.Idle) * scale)
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21
// up, with a one-digit negative exponent unpadded. NaN and ±Inf are
// not JSON and return an error with encoding/json's message.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendJSONString appends s as a quoted JSON string.
func appendJSONString(dst []byte, s string, escapeHTML bool) []byte {
	dst = append(dst, '"')
	dst = appendJSONChars(dst, s, escapeHTML)
	return append(dst, '"')
}

// jsonEsc classifies ASCII bytes for escaping: escNone is copied,
// escAlways always escaped, escHTML escaped only with HTML escaping on.
const (
	escNone = iota
	escAlways
	escHTML
)

var jsonEsc = func() (t [utf8.RuneSelf]uint8) {
	for b := 0; b < 0x20; b++ {
		t[b] = escAlways
	}
	t['"'], t['\\'] = escAlways, escAlways
	t['<'], t['>'], t['&'] = escHTML, escHTML, escHTML
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONChars appends the body of a JSON string holding s, escaped
// as encoding/json escapes it: short escapes for \" \\ \b \f \n \r \t,
// \u00XX for other control bytes (and <, > and & with escapeHTML),
// \ufffd for each byte of invalid UTF-8, and U+2028 and U+2029 always
// escaped.
func appendJSONChars(dst []byte, s string, escapeHTML bool) []byte {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			e := jsonEsc[b]
			if e == escNone || e == escHTML && !escapeHTML {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
