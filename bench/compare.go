package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords loads an -out file: one untraced or traced run per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) and statistics.median
// compute them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(n-1, j))
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// verdict judges the change's runs against the base's for one metric:
// regressed when its median is worse by more than the bound, improved
// when better by more, unchanged otherwise — and unresolved when either
// side's spread is wider than the bound, unless every change run beats
// (or loses to) every base run. A metric with a floor is held to the
// larger of its bound and the floor as a share of the base median.
func verdict(d metricDef, base, change []float64) (worse float64, v string) {
	if d.better == "higher" {
		// Negated, every metric reads lower-is-better.
		base, change = negated(base), negated(change)
	}
	_, mb, _ := quartiles(base)
	_, mc, _ := quartiles(change)
	worse = (mc - mb) / math.Abs(mb)
	bound := math.Max(d.bound, d.floor/math.Abs(mb))
	bMin, bMax := minMax(base)
	cMin, cMax := minMax(change)
	switch {
	case math.Max(spread(base), spread(change)) > bound:
		switch {
		case cMax < bMin:
			return worse, "improved"
		case cMin > bMax:
			return worse, "regressed"
		}
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	case worse < -bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

func negated(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// runCompare prints, for every workload × end-to-end metric present on
// both sides, each side's median and quartiles and the verdict. It
// exits 1 when any metric regressed.
func runCompare(basePath, changePath string, stdout, stderr io.Writer) int {
	base, err := readRecords(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	change, err := readRecords(changePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if compareRecords(base, change, stdout) {
		return 1
	}
	return 0
}

// compareRecords writes the comparison table and reports whether any
// metric regressed. Traced runs are skipped: their metrics are per-layer.
func compareRecords(base, change []record, w io.Writer) (regressed bool) {
	values := func(recs []record, wl, metric string) []float64 {
		var xs []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl && !r.Trace {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-14s %-19s %32s %32s %8s  %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "worse", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			b, c := values(base, wl.name, d.name), values(change, wl.name, d.name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			worse, v := verdict(d, b, c)
			regressed = regressed || v == "regressed"
			bound := fmt.Sprintf("%g%%", 100*d.bound)
			if d.floor > 0 {
				bound += fmt.Sprintf(" or %g %s", d.floor, d.unit)
			}
			fmt.Fprintf(w, "%-14s %-19s %32s %32s %+7.1f%%  %s (bound %s, n=%d/%d)\n",
				wl.name, d.name, quartileCell(b), quartileCell(c), 100*worse, v, bound, len(b), len(c))
		}
	}
	return regressed
}

func quartileCell(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}
