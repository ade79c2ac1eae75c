package main

import (
	"fmt"
	"io"
	"strings"
)

// verdict judges one end-to-end metric on one workload: a holds the
// base runs' values and b the other's. worse is the share of a's median
// by which b's median is worse (negative when better).
//
// A median worse by more than the bound is "regressed". Otherwise, when
// either side's runs spread wider than the bound, the pair cannot
// resolve a change of the bound's size and is "unresolved" — unless
// every run of b reads better than every run of a. Everything else is
// "ok".
func verdict(d metricDef, a, b []float64, spreadA, spreadB float64) (worse float64, v string) {
	medA, medB := median(a), median(b)
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	worse = (medB - medA) / medA
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return worse, "regressed"
	}
	if max(spreadA, spreadB) > d.Bound {
		for _, y := range b {
			for _, x := range a {
				if !better(y, x) {
					return worse, "unresolved"
				}
			}
		}
	}
	return worse, "ok"
}

// runSet is the runs of one report file by workload.
type runSet map[string][]runReport

func loadRunSet(path string) (runSet, error) {
	rf, err := loadReport(path)
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, r := range rf.Runs {
		if r.Quick {
			return nil, fmt.Errorf("%s holds a -quick run: quick runs are for trying the command, not for comparing", path)
		}
		set[r.Workload] = append(set[r.Workload], r)
	}
	return set, nil
}

// values returns the metric's value in each run, and the spread between
// them. A single run's spread is the spread between its own passes.
func values(runs []runReport, name string) ([]float64, float64) {
	var xs []float64
	for _, r := range runs {
		if s, ok := r.Metrics[name]; ok {
			xs = append(xs, s.Value)
		}
	}
	if len(runs) == 1 {
		if s, ok := runs[0].Metrics[name]; ok && s.Value != 0 {
			return xs, (s.Q3 - s.Q1) / s.Value
		}
	}
	return xs, spread(xs)
}

// exactCount reports whether a per-layer metric is a count that must
// repeat bit-for-bit with the same seed. The serve counts come from a
// closed loop that runs for a time, so they do not.
func exactCount(d metricDef) bool {
	return (d.Unit == "count" || d.Unit == "bytes") && !strings.HasPrefix(d.Name, "serve.")
}

// compareReports prints one row per end-to-end metric and workload:
// both medians, b's median as a ratio of a's, the bound and the
// verdict; then one row per exact per-layer count that differs between
// traced runs of the same seed. The exit code is 1 when any row is
// regressed, unresolved or differs.
func compareReports(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]runSet
	for i, path := range []string{pathA, pathB} {
		var err error
		if sets[i], err = loadRunSet(path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	return printComparison(sets[0], sets[1], stdout)
}

func printComparison(a, b runSet, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-14s %-28s %12s %12s %10s %6s  %s\n", "workload", "metric", "a median", "b median", "b/a", "bound", "verdict")
	for _, wl := range workloads {
		if len(a[wl]) == 0 || len(b[wl]) == 0 {
			continue
		}
		for _, d := range endToEnd {
			xa, sa := values(a[wl], d.Name)
			xb, sb := values(b[wl], d.Name)
			_, v := verdict(d, xa, xb, sa, sb)
			if v != "ok" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-28s %12.6g %12.6g %9.4fx %6.2f  %s (n %d vs %d, spread %.3f vs %.3f)\n",
				wl, d.Name, median(xa), median(xb), median(xb)/median(xa), d.Bound, v, len(xa), len(xb), sa, sb)
		}
		for _, ra := range a[wl] {
			for _, rb := range b[wl] {
				if !ra.Trace || !rb.Trace || ra.Seed != rb.Seed {
					continue
				}
				for _, d := range perLayer {
					if va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value; exactCount(d) && va != vb {
						code = 1
						fmt.Fprintf(w, "%-14s %-28s %12.6g %12.6g  differs at seed %d\n", wl, d.Name, va, vb, ra.Seed)
					}
				}
			}
		}
	}
	return code
}
