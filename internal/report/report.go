// Package report renders tables and series for the experiment harness:
// the Table 1 reproduction, the convergence-time sweeps, and the
// campaign pipeline's per-cell artifacts. Tables render as aligned
// ASCII (terminals, diffing), RFC-4180 CSV (spreadsheets, downstream
// analysis) and LaTeX tabulars (papers); series render as x/y text,
// ASCII plots and standalone SVG line charts. All emitters are pure
// functions of their inputs — no wall-clock, no randomness — so equal
// data produces byte-identical artifacts.
//
// Except for CSV, each emitter appends its output into one recycled
// buffer, numbers through strconv, and writes it with one call.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// bufs recycles the emitters' output buffers.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// write appends the output render makes into a recycled buffer and
// writes it to w in one call.
func write(w io.Writer, render func(b []byte) []byte) error {
	p := bufs.Get().(*[]byte)
	*p = render((*p)[:0])
	_, err := w.Write(*p)
	bufs.Put(p)
	return err
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	cells   []string // the rows, len(headers) cells each
	rows    int
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped and
// missing cells are blank.
func (t *Table) AddRow(cells ...string) {
	n := len(t.headers)
	if len(cells) > n {
		cells = cells[:n]
	}
	t.cells = append(t.cells, cells...)
	t.cells = append(t.cells, make([]string, n-len(cells))...)
	t.rows++
}

// AddRowf appends a row of formatted cells: each argument is rendered
// with %v.
func (t *Table) AddRowf(cells ...interface{}) {
	s := make([]string, len(cells))
	for i, c := range cells {
		s[i] = fmt.Sprintf("%v", c)
	}
	t.AddRow(s...)
}

// row returns row r's cells.
func (t *Table) row(r int) []string {
	n := len(t.headers)
	return t.cells[r*n : (r+1)*n : (r+1)*n]
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	write(w, t.appendText)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// appendText appends the title line, then the header, a rule and the
// rows, each cell padded with spaces to its column's widest cell (in
// bytes).
func (t *Table) appendText(b []byte) []byte {
	var buf [32]int // column widths; tables have fewer columns than this
	widths := buf[:0]
	for i, h := range t.headers {
		wd := len(h)
		for r := range t.rows {
			wd = max(wd, len(t.row(r)[i]))
		}
		widths = append(widths, wd)
	}
	if t.Title != "" {
		b = append(append(b, t.Title...), '\n')
	}
	b = appendRow(b, t.headers, widths)
	b = append(b, "| "...)
	for i, wd := range widths {
		if i > 0 {
			b = append(b, " | "...)
		}
		b = appendRepeat(b, '-', wd)
	}
	b = append(b, " |\n"...)
	for r := range t.rows {
		b = appendRow(b, t.row(r), widths)
	}
	return b
}

// appendRow appends one "| a | b |" line, each cell padded to its
// width.
func appendRow(b []byte, cells []string, widths []int) []byte {
	b = append(b, "| "...)
	for i, c := range cells {
		if i > 0 {
			b = append(b, " | "...)
		}
		b = appendRepeat(append(b, c...), ' ', widths[i]-len(c))
	}
	return append(b, " |\n"...)
}

// appendRepeat appends n copies of c (none when n <= 0).
func appendRepeat(b []byte, c byte, n int) []byte {
	for range n {
		b = append(b, c)
	}
	return b
}

// RenderCSV writes the table as RFC-4180 CSV: one header row, then the
// data rows in insertion order (the title is not emitted — CSV
// consumers want a rectangular file). Quoting and escaping follow
// encoding/csv, so cells containing commas, quotes or newlines stay
// one field.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.headers); err != nil {
		return err
	}
	for r := range t.rows {
		if err := cw.Write(t.row(r)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderLaTeX writes the table as a LaTeX tabular (all columns
// left-aligned, \hline rules, the title as leading comment lines).
// Every cell goes through EscapeLaTeX, so protocol names and fault
// plans containing _, %, & and the other specials typeset verbatim.
// Each line of the title (split at \n, \r and \r\n, the line ends TeX
// reads) is a "% " comment line of its own, so no part of the title
// typesets.
func (t *Table) RenderLaTeX(w io.Writer) error {
	return write(w, t.appendLaTeX)
}

func (t *Table) appendLaTeX(b []byte) []byte {
	if t.Title != "" {
		b = append(b, "% "...)
		for i := 0; i < len(t.Title); i++ {
			switch c := t.Title[i]; c {
			case '\r', '\n':
				if c == '\r' && i+1 < len(t.Title) && t.Title[i+1] == '\n' {
					i++
				}
				b = append(b, "\n% "...)
			default:
				b = append(b, c)
			}
		}
		b = append(b, '\n')
	}
	b = append(b, "\\begin{tabular}{"...)
	b = appendRepeat(b, 'l', len(t.headers))
	b = append(b, "}\n\\hline\n"...)
	b = appendLaTeXRow(b, t.headers)
	b = append(b, "\\hline\n"...)
	for r := range t.rows {
		b = appendLaTeXRow(b, t.row(r))
	}
	return append(b, "\\hline\n\\end{tabular}\n"...)
}

// appendLaTeXRow appends one tabular row, its cells escaped.
func appendLaTeXRow(b []byte, cells []string) []byte {
	for i, c := range cells {
		if i > 0 {
			b = append(b, " & "...)
		}
		b = appendLaTeX(b, c)
	}
	return append(b, " \\\\\n"...)
}

// EscapeLaTeX escapes the ten LaTeX special characters so s typesets
// as literal text inside a tabular cell. Invalid UTF-8 becomes U+FFFD.
func EscapeLaTeX(s string) string {
	return string(appendLaTeX(nil, s))
}

// appendLaTeX appends s escaped as EscapeLaTeX escapes it. Ranging over
// s yields utf8.RuneError for each invalid byte, appended as U+FFFD.
func appendLaTeX(b []byte, s string) []byte {
	for _, r := range s {
		switch r {
		case '\\':
			b = append(b, `\textbackslash{}`...)
		case '&', '%', '$', '#', '_', '{', '}':
			b = append(b, '\\', byte(r))
		case '~':
			b = append(b, `\textasciitilde{}`...)
		case '^':
			b = append(b, `\textasciicircum{}`...)
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return b
}

// Series renders a labeled numeric series ("figure" data) as
// tab-separated x/y lines with a header, the textual equivalent of one
// plotted curve.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// appendG appends f as %g does.
func appendG(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendFixed appends f as %.<prec>f does.
func appendFixed(b []byte, f float64, prec int) []byte {
	return strconv.AppendFloat(b, f, 'f', prec, 64)
}

// appendHeader appends the "# series: name (y vs x)" line.
func (s *Series) appendHeader(b []byte) []byte {
	b = append(append(b, "# series: "...), s.Name...)
	b = append(append(b, " ("...), s.YLabel...)
	b = append(append(b, " vs "...), s.XLabel...)
	return append(b, ")\n"...)
}

// Render writes the series to w.
func (s *Series) Render(w io.Writer) {
	write(w, s.appendText)
}

// String renders the series to a string.
func (s *Series) String() string {
	var b strings.Builder
	s.Render(&b)
	return b.String()
}

// appendText appends the header and one "x\ty" line per point.
func (s *Series) appendText(b []byte) []byte {
	b = s.appendHeader(b)
	for i := range s.X {
		b = append(appendG(b, s.X[i]), '\t')
		b = append(appendG(b, s.Y[i]), '\n')
	}
	return b
}

// bounds returns the series' x/y extents, widening degenerate (single
// value) axes by a unit so the plot mapping stays finite.
func (s *Series) bounds() (xmin, xmax, ymin, ymax float64) {
	xmin, xmax = s.X[0], s.X[0]
	ymin, ymax = s.Y[0], s.Y[0]
	for i := range s.X {
		xmin, xmax = min(xmin, s.X[i]), max(xmax, s.X[i])
		ymin, ymax = min(ymin, s.Y[i]), max(ymax, s.Y[i])
	}
	if xmin == xmax {
		xmax = xmin + 1
	}
	if ymin == ymax {
		ymax = ymin + 1
	}
	return
}

// RenderASCII draws the series as a width x height character plot:
// points marked '*', a labeled frame, and the header line Render
// emits. Dimensions below 2x2 are clamped to 2. An empty series draws
// only the header and an "(empty series)" note. A point that maps to
// no cell — a NaN or infinite value, or an axis too wide or too narrow
// for float64 to span — is not drawn.
func (s *Series) RenderASCII(w io.Writer, width, height int) {
	write(w, func(b []byte) []byte { return s.appendASCII(b, max(width, 2), max(height, 2)) })
}

func (s *Series) appendASCII(b []byte, width, height int) []byte {
	b = s.appendHeader(b)
	if len(s.X) == 0 {
		return append(b, "(empty series)\n"...)
	}
	xmin, xmax, ymin, ymax := s.bounds()
	// The left gutter carries the y extents; the x extents go under the
	// frame, anchored to its corners.
	var yhiBuf, yloBuf, xloBuf, xhiBuf [32]byte
	yhi, ylo := appendG(yhiBuf[:0], ymax), appendG(yloBuf[:0], ymin)
	lo, hi := appendG(xloBuf[:0], xmin), appendG(xhiBuf[:0], xmax)
	gutter := max(len(yhi), len(ylo))
	top, line := len(b), gutter+len(" ||\n")+width
	for r := range height {
		var label []byte
		switch r {
		case 0:
			label = yhi
		case height - 1:
			label = ylo
		}
		b = append(appendRepeat(b, ' ', gutter-len(label)), label...)
		b = appendRepeat(append(b, " |"...), ' ', width)
		b = append(b, "|\n"...)
	}
	for i := range s.X {
		col := (s.X[i] - xmin) / (xmax - xmin) * float64(width-1)
		row := (s.Y[i] - ymin) / (ymax - ymin) * float64(height-1)
		if col >= 0 && col < float64(width) && row >= 0 && row < float64(height) {
			b[top+(height-1-int(row))*line+gutter+2+int(col)] = '*'
		}
	}
	b = appendRepeat(append(appendRepeat(b, ' ', gutter+1), '+'), '-', width)
	b = appendRepeat(append(b, "+\n"...), ' ', gutter+1)
	if pad := width + 2 - len(lo) - len(hi); pad >= 1 {
		b = appendRepeat(append(b, lo...), ' ', pad)
	} else {
		b = append(append(b, lo...), " .. "...)
	}
	return append(append(b, hi...), '\n')
}

// svgMargins inset the plot area within the SVG canvas.
const (
	svgMarginLeft   = 52
	svgMarginRight  = 12
	svgMarginTop    = 24
	svgMarginBottom = 32
)

// RenderSVG writes the series as a standalone SVG line chart of the
// given pixel dimensions (clamped to at least 120x80): an axes frame,
// min/max tick labels, the series polyline with point markers, and the
// name as title. Text content is XML-escaped as encoding/xml's
// EscapeText escapes it.
func (s *Series) RenderSVG(w io.Writer, width, height int) error {
	return write(w, func(b []byte) []byte { return s.appendSVG(b, max(width, 120), max(height, 80)) })
}

func (s *Series) appendSVG(b []byte, width, height int) []byte {
	px0, px1 := float64(svgMarginLeft), float64(width-svgMarginRight)
	py0, py1 := float64(height-svgMarginBottom), float64(svgMarginTop)
	b = append(b, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 `...)
	b = strconv.AppendInt(append(strconv.AppendInt(b, int64(width), 10), ' '), int64(height), 10)
	b = append(b, `" font-family="monospace" font-size="11">`+"\n"...)
	b = strconv.AppendInt(append(b, `<text x="`...), svgMarginLeft, 10)
	b = appendXML(append(b, `" y="15">`...), s.Name)
	b = appendXML(append(b, " ("...), s.YLabel)
	b = appendXML(append(b, " vs "...), s.XLabel)
	b = appendFixed(append(b, ")</text>\n"+`<rect x="`...), px0, 1)
	b = appendFixed(append(b, `" y="`...), py1, 1)
	b = appendFixed(append(b, `" width="`...), px1-px0, 1)
	b = appendFixed(append(b, `" height="`...), py0-py1, 1)
	b = append(b, `" fill="none" stroke="#888"/>`+"\n"...)
	if len(s.X) == 0 {
		b = appendFixed(append(b, `<text x="`...), px0+8, 1)
		b = appendFixed(append(b, `" y="`...), (py0+py1)/2, 1)
		return append(b, `">(empty series)</text>`+"\n</svg>\n"...)
	}
	xmin, xmax, ymin, ymax := s.bounds()
	sx := func(x float64) float64 { return px0 + (x-xmin)/(xmax-xmin)*(px1-px0) }
	sy := func(y float64) float64 { return py0 - (y-ymin)/(ymax-ymin)*(py0-py1) }
	b = append(b, `<polyline fill="none" stroke="#2166ac" stroke-width="1.5" points="`...)
	for i := range s.X {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendFixed(append(appendFixed(b, sx(s.X[i]), 2), ','), sy(s.Y[i]), 2)
	}
	b = append(b, `"/>`+"\n"...)
	for i := range s.X {
		b = appendFixed(append(b, `<circle cx="`...), sx(s.X[i]), 2)
		b = appendFixed(append(b, `" cy="`...), sy(s.Y[i]), 2)
		b = append(b, `" r="2" fill="#2166ac"/>`+"\n"...)
	}
	// The y extents label the frame's left corners; the x extents sit
	// on an integer baseline under it.
	const end = ` text-anchor="end"`
	b = appendTick(b, px0-4, py1+4, 1, end, ymax)
	b = appendTick(b, px0-4, py0+4, 1, end, ymin)
	b = appendTick(b, px0, float64(height-10), 0, "", xmin)
	b = appendTick(b, px1, float64(height-10), 0, end, xmax)
	return append(b, "</svg>\n"...)
}

// appendTick appends an axis label: v as %g at (x, y), y with yPrec
// decimals, and the anchor attribute.
func appendTick(b []byte, x, y float64, yPrec int, anchor string, v float64) []byte {
	b = appendFixed(append(b, `<text x="`...), x, 1)
	b = appendFixed(append(b, `" y="`...), y, yPrec)
	b = append(append(append(b, '"'), anchor...), '>')
	return append(appendG(b, v), "</text>\n"...)
}

// appendXML appends s escaped as encoding/xml's EscapeText escapes it:
// the five markup characters, tab, newline and carriage return as
// character references, and each invalid UTF-8 byte and each rune
// outside XML's character range as U+FFFD.
func appendXML(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		switch r {
		case '"':
			b = append(b, "&#34;"...)
		case '\'':
			b = append(b, "&#39;"...)
		case '&':
			b = append(b, "&amp;"...)
		case '<':
			b = append(b, "&lt;"...)
		case '>':
			b = append(b, "&gt;"...)
		case '\t':
			b = append(b, "&#x9;"...)
		case '\n':
			b = append(b, "&#xA;"...)
		case '\r':
			b = append(b, "&#xD;"...)
		default:
			if r == utf8.RuneError && width == 1 || !(r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= utf8.MaxRune) {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, s[i:i+width]...)
			}
		}
		i += width
	}
	return b
}
