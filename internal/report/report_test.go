package report

import (
	"encoding/binary"
	"encoding/csv"
	"encoding/xml"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("short", "1")
	tab.AddRow("a-much-longer-name", "22")
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	width := len(lines[1])
	for i, l := range lines[1:] {
		if len(l) != width {
			t.Errorf("line %d has width %d, want %d:\n%s", i+1, len(l), width, out)
		}
	}
	if !strings.HasPrefix(lines[0], "demo") {
		t.Errorf("missing title: %q", lines[0])
	}
}

func TestTableMissingAndExtraCells(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("only-a")
	tab.AddRow("x", "y", "dropped")
	out := tab.String()
	if strings.Contains(out, "dropped") {
		t.Error("extra cell rendered")
	}
	if !strings.Contains(out, "only-a") {
		t.Error("short row not rendered")
	}
}

func TestAddRowf(t *testing.T) {
	tab := NewTable("", "n", "ok")
	tab.AddRowf(42, true)
	out := tab.String()
	if !strings.Contains(out, "42") || !strings.Contains(out, "true") {
		t.Errorf("formatted cells missing: %s", out)
	}
}

func TestSeries(t *testing.T) {
	s := Series{Name: "convergence", XLabel: "N", YLabel: "steps"}
	s.Add(2, 10)
	s.Add(4, 40)
	out := s.String()
	if !strings.Contains(out, "# series: convergence") {
		t.Errorf("missing header: %s", out)
	}
	if !strings.Contains(out, "2\t10") || !strings.Contains(out, "4\t40") {
		t.Errorf("missing points: %s", out)
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against testdata/<name>.golden, rewriting the
// file under -update. Goldens pin the emitters byte-for-byte: campaign
// artifacts must be identical across runs and execution paths.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// goldenTable exercises the cell naming the campaign actually emits:
// protocol slugs with underscores, fault plans with % and &, LaTeX
// specials in free text.
func goldenTable() *Table {
	tab := NewTable("campaign cells", "cell", "fault_plan", "note")
	tab.AddRow("self_stab-agent-p6n4", "@100:corrupt=2", "50% converged")
	tab.AddRow("asym-count-p6n6", "", "A&B $x_i$ #3 {ok} ~5 ^2 \\")
	tab.AddRow("a,comma", `quo"ted`, "line\nbreak")
	return tab
}

func TestRenderCSVGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenTable().RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	golden(t, "table_csv", b.String())
	// Column order must match the header declaration order.
	first := strings.SplitN(b.String(), "\n", 2)[0]
	if first != "cell,fault_plan,note" {
		t.Errorf("header row = %q", first)
	}
}

func TestRenderLaTeXGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenTable().RenderLaTeX(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	golden(t, "table_latex", out)
	for _, bad := range []string{"fault_plan", "50% conv", "A&B"} {
		if strings.Contains(out, bad) {
			t.Errorf("unescaped special survived: %q in\n%s", bad, out)
		}
	}
	for _, want := range []string{`fault\_plan`, `50\% converged`, `A\&B`, `\textbackslash{}`, `\textasciitilde{}`, `\textasciicircum{}`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing escape %q in\n%s", want, out)
		}
	}
}

func TestEscapeLaTeX(t *testing.T) {
	cases := map[string]string{
		"plain": "plain",
		"a_b":   `a\_b`,
		"100%":  `100\%`,
		"a&b":   `a\&b`,
		"$#{}":  `\$\#\{\}`,
		`\~^`:   `\textbackslash{}\textasciitilde{}\textasciicircum{}`,
	}
	for in, want := range cases {
		if got := EscapeLaTeX(in); got != want {
			t.Errorf("EscapeLaTeX(%q) = %q, want %q", in, got, want)
		}
	}
}

func goldenSeries() *Series {
	s := &Series{Name: "convergence_cdf p=6", XLabel: "steps", YLabel: "fraction <= x"}
	for i, st := range []float64{120, 250, 250, 400, 900} {
		s.Add(st, float64(i+1)/5)
	}
	return s
}

func TestRenderASCIIGolden(t *testing.T) {
	var b strings.Builder
	goldenSeries().RenderASCII(&b, 40, 10)
	golden(t, "series_ascii", b.String())
}

func TestRenderSVGGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenSeries().RenderSVG(&b, 320, 200); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	golden(t, "series_svg", out)
	if !strings.Contains(out, "&lt;= x") {
		t.Error("SVG text not XML-escaped")
	}
	if err := xml.Unmarshal([]byte(out), new(struct{ XMLName xml.Name })); err != nil {
		t.Errorf("SVG is not well-formed XML: %v", err)
	}
}

func TestRenderEmptySeries(t *testing.T) {
	s := &Series{Name: "empty", XLabel: "x", YLabel: "y"}
	var a, v strings.Builder
	s.RenderASCII(&a, 20, 5)
	if !strings.Contains(a.String(), "(empty series)") {
		t.Errorf("ASCII empty note missing:\n%s", a.String())
	}
	if err := s.RenderSVG(&v, 200, 100); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.String(), "(empty series)") {
		t.Errorf("SVG empty note missing:\n%s", v.String())
	}
}

func TestRenderDegenerateSeries(t *testing.T) {
	s := &Series{Name: "flat", XLabel: "x", YLabel: "y"}
	s.Add(3, 1)
	s.Add(3, 1) // identical points: both axes degenerate
	var a, v strings.Builder
	s.RenderASCII(&a, 10, 4) // must not divide by zero
	if err := s.RenderSVG(&v, 200, 100); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(v.String(), "NaN") || strings.Contains(a.String(), "NaN") {
		t.Error("degenerate series produced NaN coordinates")
	}
}

// Emitters must be pure: rendering twice yields identical bytes.
func TestRenderersDeterministic(t *testing.T) {
	render := func() string {
		var b strings.Builder
		if err := goldenTable().RenderCSV(&b); err != nil {
			t.Fatal(err)
		}
		if err := goldenTable().RenderLaTeX(&b); err != nil {
			t.Fatal(err)
		}
		goldenSeries().RenderASCII(&b, 40, 10)
		if err := goldenSeries().RenderSVG(&b, 320, 200); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if render() != render() {
		t.Error("renderers are not deterministic")
	}
}

// The fmt renderers the append emitters replaced, kept as references:
// FuzzTableRender and FuzzSeriesRender require byte-equal output. Two
// departures from the replaced code, which the emitters share:
// refRenderLaTeX writes each title line as its own comment line (the
// replaced code wrote the title raw, so a line break in it ended the
// comment), and refRenderASCII skips a point that maps to no cell (the
// replaced code indexed out of range there and panicked).

func refRender(t *Table) string {
	var w strings.Builder
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for r := range t.rows {
		for i, c := range t.row(r) {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	pad := func(s string, w int) string {
		if len(s) >= w {
			return s
		}
		return s + strings.Repeat(" ", w-len(s))
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return "| " + strings.Join(parts, " | ") + " |"
	}
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if t.Title != "" {
		fmt.Fprintf(&w, "%s\n", t.Title)
	}
	fmt.Fprintln(&w, line(t.headers))
	fmt.Fprintln(&w, line(rule))
	for r := range t.rows {
		fmt.Fprintln(&w, line(t.row(r)))
	}
	return w.String()
}

func refRenderLaTeX(t *Table) string {
	var b strings.Builder
	if t.Title != "" {
		title := strings.NewReplacer("\r\n", "\n", "\r", "\n").Replace(t.Title)
		for _, l := range strings.Split(title, "\n") {
			fmt.Fprintf(&b, "%% %s\n", l)
		}
	}
	fmt.Fprintf(&b, "\\begin{tabular}{%s}\n\\hline\n", strings.Repeat("l", len(t.headers)))
	line := func(cells []string) {
		esc := make([]string, len(cells))
		for i, c := range cells {
			esc[i] = refEscapeLaTeX(c)
		}
		b.WriteString(strings.Join(esc, " & "))
		b.WriteString(" \\\\\n")
	}
	line(t.headers)
	b.WriteString("\\hline\n")
	for r := range t.rows {
		line(t.row(r))
	}
	b.WriteString("\\hline\n\\end{tabular}\n")
	return b.String()
}

func refEscapeLaTeX(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\textbackslash{}`)
		case '&', '%', '$', '#', '_', '{', '}':
			b.WriteByte('\\')
			b.WriteRune(r)
		case '~':
			b.WriteString(`\textasciitilde{}`)
		case '^':
			b.WriteString(`\textasciicircum{}`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func refRenderSeries(s *Series) string {
	var w strings.Builder
	fmt.Fprintf(&w, "# series: %s (%s vs %s)\n", s.Name, s.YLabel, s.XLabel)
	for i := range s.X {
		fmt.Fprintf(&w, "%g\t%g\n", s.X[i], s.Y[i])
	}
	return w.String()
}

func refRenderASCII(s *Series, width, height int) string {
	var w strings.Builder
	width, height = max(width, 2), max(height, 2)
	fmt.Fprintf(&w, "# series: %s (%s vs %s)\n", s.Name, s.YLabel, s.XLabel)
	if len(s.X) == 0 {
		fmt.Fprintln(&w, "(empty series)")
		return w.String()
	}
	xmin, xmax, ymin, ymax := s.bounds()
	cells := make([][]byte, height)
	for r := range cells {
		cells[r] = []byte(strings.Repeat(" ", width))
	}
	for i := range s.X {
		col := (s.X[i] - xmin) / (xmax - xmin) * float64(width-1)
		row := (s.Y[i] - ymin) / (ymax - ymin) * float64(height-1)
		if math.IsNaN(col) || math.IsNaN(row) || col < 0 || row < 0 || col >= float64(width) || row >= float64(height) {
			continue
		}
		cells[height-1-int(row)][int(col)] = '*'
	}
	labels := make([]string, height)
	labels[0] = fmt.Sprintf("%g", ymax)
	labels[height-1] = fmt.Sprintf("%g", ymin)
	gutter := 0
	for _, l := range labels {
		gutter = max(gutter, len(l))
	}
	for r, line := range cells {
		fmt.Fprintf(&w, "%*s |%s|\n", gutter, labels[r], line)
	}
	lo, hi := fmt.Sprintf("%g", xmin), fmt.Sprintf("%g", xmax)
	fmt.Fprintf(&w, "%*s +%s+\n", gutter, "", strings.Repeat("-", width))
	if pad := width + 2 - len(lo) - len(hi); pad >= 1 {
		fmt.Fprintf(&w, "%*s %s%*s\n", gutter, "", lo, pad+len(hi), hi)
	} else {
		fmt.Fprintf(&w, "%*s %s .. %s\n", gutter, "", lo, hi)
	}
	return w.String()
}

func refRenderSVG(s *Series, width, height int) string {
	width, height = max(width, 120), max(height, 80)
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d" font-family="monospace" font-size="11">`+"\n", width, height)
	esc := func(t string) string {
		var eb strings.Builder
		xml.EscapeText(&eb, []byte(t))
		return eb.String()
	}
	px0, px1 := float64(svgMarginLeft), float64(width-svgMarginRight)
	py0, py1 := float64(height-svgMarginBottom), float64(svgMarginTop)
	fmt.Fprintf(&b, `<text x="%d" y="15">%s (%s vs %s)</text>`+"\n",
		svgMarginLeft, esc(s.Name), esc(s.YLabel), esc(s.XLabel))
	fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#888"/>`+"\n",
		px0, py1, px1-px0, py0-py1)
	if len(s.X) > 0 {
		xmin, xmax, ymin, ymax := s.bounds()
		sx := func(x float64) float64 { return px0 + (x-xmin)/(xmax-xmin)*(px1-px0) }
		sy := func(y float64) float64 { return py0 - (y-ymin)/(ymax-ymin)*(py0-py1) }
		var pts strings.Builder
		for i := range s.X {
			fmt.Fprintf(&pts, "%.2f,%.2f ", sx(s.X[i]), sy(s.Y[i]))
		}
		fmt.Fprintf(&b, `<polyline fill="none" stroke="#2166ac" stroke-width="1.5" points="%s"/>`+"\n",
			strings.TrimSpace(pts.String()))
		for i := range s.X {
			fmt.Fprintf(&b, `<circle cx="%.2f" cy="%.2f" r="2" fill="#2166ac"/>`+"\n", sx(s.X[i]), sy(s.Y[i]))
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="end">%g</text>`+"\n", px0-4, py1+4, ymax)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="end">%g</text>`+"\n", px0-4, py0+4, ymin)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d">%g</text>`+"\n", px0, height-10, xmin)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="end">%g</text>`+"\n", px1, height-10, xmax)
	} else {
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f">(empty series)</text>`+"\n", px0+8, (py0+py1)/2)
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func refRenderCSV(t *Table) string {
	var b strings.Builder
	cw := csv.NewWriter(&b)
	cw.Write(t.headers)
	for r := range t.rows {
		cw.Write(t.row(r))
	}
	cw.Flush()
	return b.String()
}

// floats packs values as FuzzSeriesRender's point data: 16 bytes per
// point, x then y, little-endian float64 bits.
func floats(xy ...float64) []byte {
	b := make([]byte, 0, 8*len(xy))
	for _, v := range xy {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// Texts the fuzz seeds put in titles, labels and cells: XML and LaTeX
// specials, a backslash before a dot, a leading space, invalid UTF-8,
// line breaks and a valid U+FFFD.
var fuzzTexts = []string{
	"convergence_cdf p=6",
	`<a href="x">&'</a>`,
	`A&B $x_i$ #3 {ok} ~5 ^2 \. 50%`,
	" leading space",
	"bad \xff\xfe utf8 \xe2\x82",
	"line\nbreak\r\nand\rcr\t\u2028\ufffd\x01",
}

func FuzzSeriesRender(f *testing.F) {
	twoP53 := float64(1<<53) + 1 // rounds to 2⁵³: a degenerate axis that +1 cannot widen
	for i, pts := range [][]byte{
		nil,
		floats(3, 1),
		floats(120, 0.2, 250, 0.4, 250, 0.6, 400, 0.8, 900, 1),
		floats(math.NaN(), 1, 2, math.NaN()),
		floats(math.Inf(1), 1, math.Inf(-1), 2, 0, math.Inf(1)),
		floats(math.Copysign(0, -1), 0, 1e21, 1e-7),
		floats(5e-324, 2.2250738585072014e-308, 1e-310, -5e-324),
		floats(twoP53, twoP53),
		floats(-1e308, 1, 1e308, 2),
	} {
		text := fuzzTexts[i%len(fuzzTexts)]
		f.Add(pts, text, fuzzTexts[(i+1)%len(fuzzTexts)], fuzzTexts[(i+2)%len(fuzzTexts)], 72, 20)
	}
	f.Add(floats(1, 2, 3, 4), "tiny", "x", "y", 0, 0)
	f.Add(floats(1e-7, 1, 1e21, 2), "cramped labels", "x", "y", 3, 3)
	f.Fuzz(func(t *testing.T, pts []byte, name, xlabel, ylabel string, width, height int) {
		s := &Series{Name: name, XLabel: xlabel, YLabel: ylabel}
		for ; len(pts) >= 16; pts = pts[16:] {
			s.Add(math.Float64frombits(binary.LittleEndian.Uint64(pts)), math.Float64frombits(binary.LittleEndian.Uint64(pts[8:])))
		}
		width, height = width%200, height%200 // small canvases; negatives clamp
		var text, ascii, svg strings.Builder
		s.Render(&text)
		s.RenderASCII(&ascii, width, height)
		if err := s.RenderSVG(&svg, 4*width, 4*height); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ kind, got, want string }{
			{"Render", text.String(), refRenderSeries(s)},
			{"String", s.String(), refRenderSeries(s)},
			{"RenderASCII", ascii.String(), refRenderASCII(s, width, height)},
			{"RenderSVG", svg.String(), refRenderSVG(s, 4*width, 4*height)},
		} {
			if c.got != c.want {
				t.Errorf("%s differs from the fmt reference:\n--- got ---\n%q\n--- want ---\n%q", c.kind, c.got, c.want)
			}
		}
	})
}

func FuzzTableRender(f *testing.F) {
	for i, text := range fuzzTexts {
		cells := strings.Join(fuzzTexts[:i+1], "\x00")
		f.Add(text, "cell\x00fault_plan\x00note", cells, uint8(i))
	}
	f.Add("", "", "", uint8(0))
	f.Add("no rows", "a\x00b", "", uint8(1))
	f.Add("title\n", "a", "x\x00\x00yy", uint8(2))
	f.Fuzz(func(t *testing.T, title, headers, cells string, shape uint8) {
		tab := NewTable(title, strings.Split(headers, "\x00")...)
		if headers == "" {
			tab = NewTable(title)
		}
		// Rows take one cell fewer, as many or one more than the
		// header count, in a cycle the shape byte starts.
		fields := strings.Split(cells, "\x00")
		for k := int(shape); len(fields) > 0; k++ {
			n := min(max(len(tab.headers)+k%3-1, 1), len(fields))
			tab.AddRow(fields[:n]...)
			fields = fields[n:]
		}
		var text, latex, csvOut strings.Builder
		tab.Render(&text)
		if err := tab.RenderLaTeX(&latex); err != nil {
			t.Fatal(err)
		}
		if err := tab.RenderCSV(&csvOut); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ kind, got, want string }{
			{"Render", text.String(), refRender(tab)},
			{"String", tab.String(), refRender(tab)},
			{"RenderLaTeX", latex.String(), refRenderLaTeX(tab)},
			{"RenderCSV", csvOut.String(), refRenderCSV(tab)},
			{"EscapeLaTeX", EscapeLaTeX(title), refEscapeLaTeX(title)},
		} {
			if c.got != c.want {
				t.Errorf("%s differs from the fmt reference:\n--- got ---\n%q\n--- want ---\n%q", c.kind, c.got, c.want)
			}
		}
	})
}

// TestRenderLaTeXMultiLineTitle: every line of a multi-line title is
// a comment, so nothing of it typesets above the tabular.
func TestRenderLaTeXMultiLineTitle(t *testing.T) {
	tab := NewTable("campaign two\nlines\r\nthree\rfour", "a")
	tab.AddRow("x")
	var b strings.Builder
	if err := tab.RenderLaTeX(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	head, _, ok := strings.Cut(out, `\begin{tabular}`)
	if !ok {
		t.Fatalf("no tabular:\n%s", out)
	}
	want := "% campaign two\n% lines\n% three\n% four\n"
	if head != want {
		t.Errorf("title lines = %q, want %q", head, want)
	}
}

// TestRenderASCIIUnplottable: points that map to no cell — NaN,
// infinite, or on an axis float64 cannot widen or span — are left out
// instead of indexing out of range.
func TestRenderASCIIUnplottable(t *testing.T) {
	for _, xs := range [][2]float64{
		{math.NaN(), 2},
		{math.Inf(1), 2},
		{1 << 60, 1 << 60}, // xmin+1 == xmin: the axis keeps zero width
	} {
		s := &Series{Name: "odd", XLabel: "x", YLabel: "y"}
		s.Add(xs[0], 1)
		s.Add(xs[1], 3)
		var b strings.Builder
		s.RenderASCII(&b, 20, 5)
		if !strings.Contains(b.String(), "+--") {
			t.Errorf("%v: no frame:\n%s", xs, b.String())
		}
	}
}
