// Command lpathbench regenerates the tables and figures of the paper's
// evaluation (Section 5) over synthetic WSJ/SWB corpora.
//
// Usage:
//
//	lpathbench -fig all -scale 0.05
//	lpathbench -fig 7 -scale 0.1 -csv out/
//
// Figures: 6a (dataset characteristics), 6b (tag frequencies), 6c (query
// result sizes), 7 (WSJ query times), 8 (SWB query times), 9 (scalability),
// 10 (labeling-scheme comparison), ablations, planner (cost-based planner
// on/off), twig (holistic twig executor on/off with allocation counts),
// bitmap (dense-bitset filter kernels on/off with allocation counts),
// limit (streaming early termination at limits 1/10/100 vs full
// evaluation), par (parallel sharded execution scaling), snapshot (binary
// .lpx cold start vs text parse+build), or all.
//
// -scale sets the fraction of the paper's corpus size (1.0 ≈ 49k WSJ
// sentences / 3.5M nodes; the default 0.05 keeps a full run under a couple
// of minutes). With -csv DIR each timing figure is also written as CSV.
// With -json DIR the planner, twig, bitmap, limit and par experiments
// additionally write the machine-readable BENCH_planner.json,
// BENCH_twig.json, BENCH_bitmap.json, BENCH_limit.json and
// BENCH_parallel.json (the CI bench artifacts).
// -workers caps the worker sweep of the parallel experiment (default:
// GOMAXPROCS); the sweep measures 1, 2, 4, ... up to the cap.
// -cpuprofile/-memprofile write pprof profiles covering the selected
// experiments (the memory profile is taken at exit).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"lpath/internal/bench"
	"lpath/internal/corpus"
	"lpath/internal/tree"
)

// figures lists the valid -fig names.
var figures = []string{"6a", "6b", "6c", "7", "8", "9", "10", "ablations", "planner", "twig", "bitmap", "limit", "par", "snapshot", "all"}

func main() {
	var (
		fig        = flag.String("fig", "all", "comma-separated experiments: "+strings.Join(figures, " "))
		scale      = flag.Float64("scale", 0.05, "corpus scale (1.0 = paper size)")
		seed       = flag.Int64("seed", 42, "corpus seed")
		csvDir     = flag.String("csv", "", "directory for CSV output (optional)")
		jsonDir    = flag.String("json", "", "directory for BENCH_*.json artifacts (planner, twig, bitmap, limit, par)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "max workers for the parallel experiment")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(figures, f) {
			fmt.Fprintf(os.Stderr, "lpathbench: unknown -fig %q; valid: %s\n", f, strings.Join(figures, " "))
			os.Exit(2)
		}
		want[f] = true
	}
	all := want["all"]
	need := func(name string) bool { return all || want[name] }

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}

	fmt.Printf("lpathbench: scale=%.3f seed=%d (paper scale = 1.0)\n\n", *scale, *seed)

	var wsjTrees, swbTrees *tree.Corpus
	loadWSJ := func() *tree.Corpus {
		if wsjTrees == nil {
			wsjTrees = timed("generate WSJ", func() *tree.Corpus {
				return bench.GenerateTrees(corpus.WSJ, *scale, *seed)
			})
		}
		return wsjTrees
	}
	loadSWB := func() *tree.Corpus {
		if swbTrees == nil {
			swbTrees = timed("generate SWB", func() *tree.Corpus {
				return bench.GenerateTrees(corpus.SWB, *scale, *seed)
			})
		}
		return swbTrees
	}
	var wsjSys, swbSys *bench.Systems
	buildWSJ := func() *bench.Systems {
		if wsjSys == nil {
			wsjSys = timed("build WSJ systems", func() *bench.Systems {
				s, err := bench.BuildSystems(loadWSJ())
				check(err)
				return s
			})
		}
		return wsjSys
	}
	buildSWB := func() *bench.Systems {
		if swbSys == nil {
			swbSys = timed("build SWB systems", func() *bench.Systems {
				s, err := bench.BuildSystems(loadSWB())
				check(err)
				return s
			})
		}
		return swbSys
	}

	if need("6a") {
		bench.WriteFig6a(os.Stdout, bench.Fig6a(loadWSJ(), loadSWB()))
		fmt.Println()
	}
	if need("6b") {
		wt, st := bench.Fig6b(loadWSJ(), loadSWB(), 10)
		bench.WriteFig6b(os.Stdout, wt, st)
		fmt.Println()
	}
	if need("6c") {
		rows, err := bench.Fig6c(buildWSJ(), buildSWB())
		check(err)
		bench.WriteFig6c(os.Stdout, rows)
		fmt.Println()
	}
	if need("7") {
		rows, err := bench.Fig7or8(buildWSJ())
		check(err)
		bench.WriteFig7or8(os.Stdout, "Figure 7 (WSJ)", rows)
		writeCSV(*csvDir, "fig7_wsj.csv", bench.CSVFig7or8(rows))
		fmt.Println()
	}
	if need("8") {
		rows, err := bench.Fig7or8(buildSWB())
		check(err)
		bench.WriteFig7or8(os.Stdout, "Figure 8 (SWB)", rows)
		writeCSV(*csvDir, "fig8_swb.csv", bench.CSVFig7or8(rows))
		fmt.Println()
	}
	if need("9") {
		curves, err := bench.Fig9(loadWSJ(), []float64{0.5, 1, 2, 3, 4})
		check(err)
		bench.WriteFig9(os.Stdout, curves)
		writeCSV(*csvDir, "fig9_scalability.csv", bench.CSVFig9(curves))
		fmt.Println()
	}
	if need("10") {
		rows, err := bench.Fig10(buildWSJ())
		check(err)
		bench.WriteFig10(os.Stdout, rows)
		writeCSV(*csvDir, "fig10_labeling.csv", bench.CSVFig10(rows))
		fmt.Println()
	}
	if need("ablations") {
		rows, err := bench.Ablations(buildWSJ())
		check(err)
		bench.WriteAblations(os.Stdout, rows)
		fmt.Println()
	}
	if need("planner") {
		rows, err := bench.PlannerImpact(buildWSJ())
		check(err)
		bench.WritePlannerImpact(os.Stdout, rows)
		writeCSV(*csvDir, "planner_impact.csv", bench.CSVPlannerImpact(rows))
		writeJSON(*jsonDir, "BENCH_planner.json", func() ([]byte, error) { return bench.JSONPlannerImpact(rows) })
		fmt.Println()
	}
	if need("twig") {
		rows, err := bench.TwigImpact(buildWSJ())
		check(err)
		bench.WriteTwigImpact(os.Stdout, rows)
		writeCSV(*csvDir, "twig_impact.csv", bench.CSVTwigImpact(rows))
		writeJSON(*jsonDir, "BENCH_twig.json", func() ([]byte, error) { return bench.JSONTwigImpact(rows) })
		fmt.Println()
	}
	if need("bitmap") {
		rows, err := bench.BitmapImpact(buildWSJ())
		check(err)
		bench.WriteBitmapImpact(os.Stdout, rows)
		writeCSV(*csvDir, "bitmap_impact.csv", bench.CSVBitmapImpact(rows))
		writeJSON(*jsonDir, "BENCH_bitmap.json", func() ([]byte, error) { return bench.JSONBitmapImpact(rows) })
		fmt.Println()
	}
	if need("limit") {
		rows, err := bench.LimitImpact(buildWSJ())
		check(err)
		bench.WriteLimitImpact(os.Stdout, rows)
		writeCSV(*csvDir, "limit_impact.csv", bench.CSVLimitImpact(rows))
		writeJSON(*jsonDir, "BENCH_limit.json", func() ([]byte, error) { return bench.JSONLimitImpact(rows) })
		fmt.Println()
	}
	if need("snapshot") {
		r, err := bench.SnapshotImpact(loadWSJ())
		check(err)
		bench.WriteSnapshotImpact(os.Stdout, r)
		writeCSV(*csvDir, "snapshot_impact.csv", bench.CSVSnapshotImpact(r))
		writeJSON(*jsonDir, "BENCH_snapshot.json", func() ([]byte, error) { return bench.JSONSnapshotImpact(r) })
		fmt.Println()
	}
	if need("par") {
		rows, err := bench.ParallelScaling(buildWSJ(), workerSweep(*workers))
		check(err)
		bench.WriteParallel(os.Stdout, rows)
		writeCSV(*csvDir, "parallel_scaling.csv", bench.CSVParallel(rows))
		writeJSON(*jsonDir, "BENCH_parallel.json", func() ([]byte, error) { return bench.JSONParallel(rows) })
		fmt.Println()
	}
}

// workerSweep returns 1, 2, 4, ... doubling up to and including max.
func workerSweep(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for w := 1; w < max; w *= 2 {
		out = append(out, w)
	}
	return append(out, max)
}

func timed[T any](what string, f func() T) T {
	start := time.Now()
	v := f()
	fmt.Fprintf(os.Stderr, "[%s: %v]\n", what, time.Since(start).Round(time.Millisecond))
	return v
}

// writeFile writes content under dir, creating dir as needed; a missing dir
// flag (empty string) disables the output.
func writeFile(dir, name string, content []byte) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		check(err)
	}
	check(os.WriteFile(filepath.Join(dir, name), content, 0o644))
}

func writeCSV(dir, name, content string) {
	writeFile(dir, name, []byte(content))
}

// writeJSON renders and writes one BENCH_*.json artifact; render only runs
// when -json was given.
func writeJSON(dir, name string, render func() ([]byte, error)) {
	if dir == "" {
		return
	}
	data, err := render()
	check(err)
	writeFile(dir, name, append(data, '\n'))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpathbench:", err)
		os.Exit(1)
	}
}
