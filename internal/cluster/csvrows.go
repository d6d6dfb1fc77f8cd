package cluster

import (
	"math"
	"slices"
	"strconv"
	"strings"
)

// CSVRows encodes the CSV rows of one span into one buffer and hands
// them out as substrings of a single string: a span's text costs its
// buffer and one string instead of one fmt.Sprintf per row. Each
// field encoder writes exactly the bytes fmt writes for the same value
// (TestRowEncodingMatchesSprintf): Lead and Float are %g, Int and Uint
// are %d, Bool is %v and Str is %s.
//
// Use: Grow, write each row's fields, then EndRow; after the last row,
// Seal and read the rows back in order with Next. Rows are kept
// newline-terminated, so no field may contain a newline.
type CSVRows struct {
	buf  []byte
	open bool   // the current row has a field
	text string // the sealed rows Next has not returned yet

	// The last text Lead formatted, as buf[leadLo:leadHi].
	leadBits       uint64
	leadLo, leadHi int
	leadOK         bool
}

// Grow presizes the encoder for rows more rows of about rowBytes bytes
// each.
func (c *CSVRows) Grow(rows, rowBytes int) {
	c.buf = slices.Grow(c.buf, rows*rowBytes)
}

// Lead writes a %g field that consecutive rows often share (the Gi of
// a grid row, which row-major order repeats Steps times): when v has
// the bits of the previous Lead, its text is copied rather than
// formatted again.
func (c *CSVRows) Lead(v float64) {
	c.sep()
	bits := math.Float64bits(v)
	if c.leadOK && bits == c.leadBits {
		c.buf = append(c.buf, c.buf[c.leadLo:c.leadHi]...)
		return
	}
	c.leadLo = len(c.buf)
	c.buf = strconv.AppendFloat(c.buf, v, 'g', -1, 64)
	c.leadBits, c.leadHi, c.leadOK = bits, len(c.buf), true
}

// Float writes v as %g.
func (c *CSVRows) Float(v float64) {
	c.sep()
	c.buf = strconv.AppendFloat(c.buf, v, 'g', -1, 64)
}

// Int writes v as %d.
func (c *CSVRows) Int(v int) {
	c.sep()
	c.buf = strconv.AppendInt(c.buf, int64(v), 10)
}

// Uint writes v as %d.
func (c *CSVRows) Uint(v uint64) {
	c.sep()
	c.buf = strconv.AppendUint(c.buf, v, 10)
}

// Bool writes v as %v.
func (c *CSVRows) Bool(v bool) {
	c.sep()
	c.buf = strconv.AppendBool(c.buf, v)
}

// Str writes v verbatim (%s).
func (c *CSVRows) Str(v string) {
	c.sep()
	c.buf = append(c.buf, v...)
}

func (c *CSVRows) sep() {
	if c.open {
		c.buf = append(c.buf, ',')
	}
	c.open = true
}

// EndRow finishes the current row; a row with no fields is empty.
func (c *CSVRows) EndRow() {
	c.buf = append(c.buf, '\n')
	c.open = false
}

// Seal copies the finished rows into one string for Next.
func (c *CSVRows) Seal() { c.text = string(c.buf) }

// Next returns the next sealed row, in the order the rows were written,
// as a substring of the one sealed string.
func (c *CSVRows) Next() string {
	i := strings.IndexByte(c.text, '\n')
	row := c.text[:i]
	c.text = c.text[i+1:]
	return row
}
