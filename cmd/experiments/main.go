// Command experiments regenerates the paper's tables and figures on the
// synthetic substrate. Select an experiment with -exp, or run everything
// with -exp all. -quick shrinks workloads for a fast smoke run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"datamaran/internal/experiments"
)

func main() {
	// The body lives in run so deferred profile writers fire before the
	// process exits (os.Exit skips defers).
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "experiment: table1|table3|table5|accuracy25|fig14a|fig14b|fig15|fig16|fig17a|fig17b|userstudy|ablation|all")
	quick := flag.Bool("quick", false, "shrink workloads for a fast run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // material allocations only, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
			}
		}()
	}

	w := os.Stdout
	scale := 0.5
	sizes := []float64{0.25, 0.5, 1, 2, 4}
	complexities := []int{1, 2, 3, 4, 5, 6}
	rowsPerType := 400
	ms := []int{1, 5, 10, 50, 200, 1000}
	perLabel := 0
	if *quick {
		scale = 0.1
		sizes = []float64{0.1, 0.25, 0.5}
		complexities = []int{1, 2, 3}
		rowsPerType = 150
		ms = []int{1, 10, 50}
		perLabel = 3
	}

	runExp := func(name string, fn func()) {
		if *exp == name || *exp == "all" {
			fn()
		}
	}
	runExp("table1", func() { experiments.Table1(w) })
	runExp("table5", func() { experiments.Table5(scale, w) })
	runExp("accuracy25", func() { experiments.Accuracy25(scale, w) })
	runExp("table3", func() { experiments.Table3Complexity(w) })
	runExp("fig14a", func() { experiments.Fig14aSize(sizes, w) })
	runExp("fig14b", func() { experiments.Fig14bComplexity(complexities, rowsPerType, w) })
	runExp("fig15", func() { experiments.Fig15Params(w) })
	runExp("fig16", func() { experiments.Fig16Sensitivity(scale/2, ms, w) })
	runExp("fig17a", func() { experiments.Fig17a(w) })
	runExp("fig17b", func() { experiments.Fig17b(perLabel, w) })
	runExp("userstudy", func() { experiments.UserStudy(w) })
	runExp("ablation", func() { experiments.AblationAssimilation(w) })

	switch *exp {
	case "table1", "table3", "table5", "accuracy25", "fig14a", "fig14b",
		"fig15", "fig16", "fig17a", "fig17b", "userstudy", "ablation", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		return 2
	}
	return 0
}
