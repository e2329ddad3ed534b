package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"lpath/internal/lpath"
	"lpath/internal/tree"
)

func parseLPath(text string) (*lpath.Path, error) { return lpath.Parse(text) }

// ms renders a duration in seconds with paper-style precision.
func secs(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

// WriteFig6a renders the dataset characteristics table.
func WriteFig6a(w io.Writer, rows []DatasetStats) {
	fmt.Fprintf(w, "Figure 6(a): Test Data Sets\n")
	fmt.Fprintf(w, "%-14s", "")
	for _, r := range rows {
		fmt.Fprintf(w, "%12s", r.Name)
	}
	fmt.Fprintln(w)
	line := func(label string, get func(DatasetStats) int64) {
		fmt.Fprintf(w, "%-14s", label)
		for _, r := range rows {
			fmt.Fprintf(w, "%12d", get(r))
		}
		fmt.Fprintln(w)
	}
	line("File Size", func(r DatasetStats) int64 { return r.Stats.FileSize })
	line("Sentences", func(r DatasetStats) int64 { return int64(r.Stats.Sentences) })
	line("Words", func(r DatasetStats) int64 { return int64(r.Stats.Words) })
	line("Tree Nodes", func(r DatasetStats) int64 { return int64(r.Stats.TreeNodes) })
	line("Unique Tags", func(r DatasetStats) int64 { return int64(r.Stats.UniqueTags) })
	line("Maximum Depth", func(r DatasetStats) int64 { return int64(r.Stats.MaxDepth) })
}

// WriteFig6b renders the top-10 tag frequency table.
func WriteFig6b(w io.Writer, wsjTags, swbTags []tree.TagFreq) {
	fmt.Fprintf(w, "Figure 6(b): Top 10 Frequent Tags\n")
	fmt.Fprintf(w, "%4s  %-14s%10s    %-14s%10s\n", "", "WSJ Tag", "Freq", "SWB Tag", "Freq")
	n := len(wsjTags)
	if len(swbTags) > n {
		n = len(swbTags)
	}
	for i := 0; i < n; i++ {
		var wt, st tree.TagFreq
		if i < len(wsjTags) {
			wt = wsjTags[i]
		}
		if i < len(swbTags) {
			st = swbTags[i]
		}
		fmt.Fprintf(w, "%4d  %-14s%10d    %-14s%10d\n", i+1, wt.Tag, wt.Count, st.Tag, st.Count)
	}
}

// WriteFig6c renders the result-size table.
func WriteFig6c(w io.Writer, rows []ResultSize) {
	fmt.Fprintf(w, "Figure 6(c): Test Query Sets (result sizes)\n")
	fmt.Fprintf(w, "%-4s %-44s %10s %10s\n", "Q", "LPath Query", "WSJ", "SWB")
	for _, r := range rows {
		fmt.Fprintf(w, "Q%-3d %-44s %10d %10d\n", r.ID, r.Query, r.WSJ, r.SWB)
	}
}

// WriteFig7or8 renders a query-time table across the three systems.
func WriteFig7or8(w io.Writer, title string, rows []SystemTiming) {
	fmt.Fprintf(w, "%s: query execution time (s)\n", title)
	fmt.Fprintf(w, "%-4s %-44s %10s %10s %10s   %s\n",
		"Q", "Query", "LPath", "TGrep2", "CorpusSrch", "results (LP/TG/CS)")
	for _, r := range rows {
		fmt.Fprintf(w, "Q%-3d %-44s %10s %10s %10s   %d/%d/%d\n",
			r.ID, r.Query, secs(r.LPath), secs(r.TGrep), secs(r.CS),
			r.NLPath, r.NTGrep, r.NCS)
	}
}

// WriteFig9 renders the scalability curves.
func WriteFig9(w io.Writer, curves map[int][]ScalePoint) {
	fmt.Fprintf(w, "Figure 9: query time as WSJ data size increases (s)\n")
	for _, id := range Fig9Queries {
		fmt.Fprintf(w, "  Q%d:\n", id)
		fmt.Fprintf(w, "  %8s %12s %10s %10s %10s\n", "factor", "nodes", "LPath", "TGrep2", "CorpusSrch")
		for _, pt := range curves[id] {
			fmt.Fprintf(w, "  %8.1f %12d %10s %10s %10s\n",
				pt.Factor, pt.Nodes, secs(pt.LPath), secs(pt.TGrep), secs(pt.CS))
		}
	}
}

// WriteFig10 renders the labeling-scheme comparison.
func WriteFig10(w io.Writer, rows []LabelTiming) {
	fmt.Fprintf(w, "Figure 10: LPath vs XPath labeling scheme (s)\n")
	fmt.Fprintf(w, "%-4s %-44s %10s %10s %10s\n", "Q", "Query", "LPath", "XPath", "results")
	for _, r := range rows {
		fmt.Fprintf(w, "Q%-3d %-44s %10s %10s %10d\n",
			r.ID, r.Query, secs(r.LPath), secs(r.XPath), r.NLPath)
	}
}

// WriteAblations renders the design-choice measurements.
func WriteAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintf(w, "Ablations: design choices (s)\n")
	fmt.Fprintf(w, "%-18s %-56s %10s %10s\n", "choice", "query", "with", "without")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-56s %10s %10s\n", r.Name, r.Query, secs(r.Baseline), secs(r.Ablated))
	}
}

// WritePlannerImpact renders the planner before/after measurements.
func WritePlannerImpact(w io.Writer, rows []PlannerRow) {
	fmt.Fprintf(w, "Planner impact: cost-based planner on vs off (s)\n")
	fmt.Fprintf(w, "%-4s %-44s %10s %10s %9s %9s\n",
		"Q", "Query", "planned", "unplanned", "speedup", "matches")
	for _, r := range rows {
		fmt.Fprintf(w, "Q%-3d %-44s %10s %10s %8.2fx %9d\n",
			r.ID, r.Query, secs(r.Planned), secs(r.Unplanned), r.Speedup(), r.N)
	}
}

// CSVPlannerImpact renders the planner before/after rows as CSV.
func CSVPlannerImpact(rows []PlannerRow) string {
	var b strings.Builder
	b.WriteString("query,planned_s,unplanned_s,speedup,matches\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%d,%f,%f,%f,%d\n",
			r.ID, r.Planned.Seconds(), r.Unplanned.Seconds(), r.Speedup(), r.N)
	}
	return b.String()
}

// WriteTwigImpact renders the twig-executor before/after measurements.
func WriteTwigImpact(w io.Writer, rows []TwigRow) {
	fmt.Fprintf(w, "Twig impact: holistic twig sweep vs per-step execution (s)\n")
	fmt.Fprintf(w, "%-4s %-44s %10s %10s %9s %12s %12s %9s   %s\n",
		"Q", "Query", "twig", "no-twig", "speedup", "allocs(t)", "allocs(n)", "matches", "strategy")
	for _, r := range rows {
		fmt.Fprintf(w, "Q%-3d %-44s %10s %10s %8.2fx %12.0f %12.0f %9d   %s\n",
			r.ID, r.Query, secs(r.Twig), secs(r.NoTwig), r.Speedup(),
			r.AllocsTwig, r.AllocsNoTwig, r.N, r.Strategy)
	}
}

// CSVTwigImpact renders the twig-executor rows as CSV.
func CSVTwigImpact(rows []TwigRow) string {
	var b strings.Builder
	b.WriteString("query,twig_s,notwig_s,speedup,allocs_twig,allocs_notwig,matches,strategy\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%d,%f,%f,%f,%.0f,%.0f,%d,%s\n",
			r.ID, r.Twig.Seconds(), r.NoTwig.Seconds(), r.Speedup(),
			r.AllocsTwig, r.AllocsNoTwig, r.N, r.Strategy)
	}
	return b.String()
}

// twigJSONRow is the machine-readable shape of one TwigRow, mirroring the
// testing-package convention of ns/op and allocs/op.
type twigJSONRow struct {
	Query       int     `json:"query"`
	Text        string  `json:"text"`
	NsPerOp     int64   `json:"ns_per_op"`
	NsPerOpOff  int64   `json:"ns_per_op_notwig"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	AllocsOff   float64 `json:"allocs_per_op_notwig"`
	Speedup     float64 `json:"speedup"`
	Matches     int     `json:"matches"`
	Strategy    string  `json:"strategy"`
}

// JSONTwigImpact renders the twig-executor rows as indented JSON, the
// payload of the BENCH_twig.json artifact.
func JSONTwigImpact(rows []TwigRow) ([]byte, error) {
	out := make([]twigJSONRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, twigJSONRow{
			Query:       r.ID,
			Text:        r.Query,
			NsPerOp:     r.Twig.Nanoseconds(),
			NsPerOpOff:  r.NoTwig.Nanoseconds(),
			AllocsPerOp: r.AllocsTwig,
			AllocsOff:   r.AllocsNoTwig,
			Speedup:     r.Speedup(),
			Matches:     r.N,
			Strategy:    r.Strategy,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// WriteBitmapImpact renders the bitmap-kernel before/after measurements.
func WriteBitmapImpact(w io.Writer, rows []BitmapRow) {
	fmt.Fprintf(w, "Bitmap impact: dense-bitset kernels vs per-scope probe expansion (s)\n")
	fmt.Fprintf(w, "%-4s %-44s %10s %10s %9s %12s %12s %9s   %s\n",
		"Q", "Query", "bitmap", "no-bitmap", "speedup", "allocs(b)", "allocs(n)", "matches", "strategy")
	for _, r := range rows {
		fmt.Fprintf(w, "Q%-3d %-44s %10s %10s %8.2fx %12.0f %12.0f %9d   %s\n",
			r.ID, r.Query, secs(r.Bitmap), secs(r.NoBitmap), r.Speedup(),
			r.AllocsBitmap, r.AllocsNoBmp, r.N, r.Strategy)
	}
}

// CSVBitmapImpact renders the bitmap-kernel rows as CSV.
func CSVBitmapImpact(rows []BitmapRow) string {
	var b strings.Builder
	b.WriteString("query,bitmap_s,nobitmap_s,speedup,allocs_bitmap,allocs_nobitmap,matches,strategy\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%d,%f,%f,%f,%.0f,%.0f,%d,%s\n",
			r.ID, r.Bitmap.Seconds(), r.NoBitmap.Seconds(), r.Speedup(),
			r.AllocsBitmap, r.AllocsNoBmp, r.N, r.Strategy)
	}
	return b.String()
}

// bitmapJSONRow is the machine-readable shape of one BitmapRow, mirroring
// the testing-package convention of ns/op and allocs/op.
type bitmapJSONRow struct {
	Query       int     `json:"query"`
	Text        string  `json:"text"`
	NsPerOp     int64   `json:"ns_per_op"`
	NsPerOpOff  int64   `json:"ns_per_op_nobitmap"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	AllocsOff   float64 `json:"allocs_per_op_nobitmap"`
	Speedup     float64 `json:"speedup"`
	Matches     int     `json:"matches"`
	Strategy    string  `json:"strategy"`
}

// JSONBitmapImpact renders the bitmap-kernel rows as indented JSON, the
// payload of the BENCH_bitmap.json artifact.
func JSONBitmapImpact(rows []BitmapRow) ([]byte, error) {
	out := make([]bitmapJSONRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, bitmapJSONRow{
			Query:       r.ID,
			Text:        r.Query,
			NsPerOp:     r.Bitmap.Nanoseconds(),
			NsPerOpOff:  r.NoBitmap.Nanoseconds(),
			AllocsPerOp: r.AllocsBitmap,
			AllocsOff:   r.AllocsNoBmp,
			Speedup:     r.Speedup(),
			Matches:     r.N,
			Strategy:    r.Strategy,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// WriteLimitImpact renders the limit-pushdown measurements; "sp@10" is the
// full/limited speedup at limit 10, the figure's headline number.
func WriteLimitImpact(w io.Writer, rows []LimitRow) {
	fmt.Fprintf(w, "Limit impact: streaming early termination (EvalLimit) vs full evaluation (s)\n")
	fmt.Fprintf(w, "%-4s %-44s %10s", "Q", "Query", "full")
	for _, k := range LimitPoints {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("k=%d", k))
	}
	fmt.Fprintf(w, " %9s %9s\n", "sp@10", "matches")
	for _, r := range rows {
		fmt.Fprintf(w, "Q%-3d %-44s %10s", r.ID, r.Query, secs(r.Full))
		for _, d := range r.Limited {
			fmt.Fprintf(w, " %10s", secs(d))
		}
		fmt.Fprintf(w, " %8.2fx %9d\n", r.Speedup(1), r.N)
	}
}

// CSVLimitImpact renders the limit-pushdown rows as CSV.
func CSVLimitImpact(rows []LimitRow) string {
	var b strings.Builder
	b.WriteString("query,full_s")
	for _, k := range LimitPoints {
		fmt.Fprintf(&b, ",limit%d_s,speedup%d", k, k)
	}
	b.WriteString(",matches\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%d,%f", r.ID, r.Full.Seconds())
		for i := range LimitPoints {
			fmt.Fprintf(&b, ",%f,%f", r.Limited[i].Seconds(), r.Speedup(i))
		}
		fmt.Fprintf(&b, ",%d\n", r.N)
	}
	return b.String()
}

// limitJSONRow is the machine-readable shape of one LimitRow. ns_per_op is
// the limit-10 evaluation, so the benchguard gate watches the
// early-termination path itself rather than the full scan; the other limits
// and the full time ride along for inspection. The fields assume the
// standing LimitPoints of {1, 10, 100}.
type limitJSONRow struct {
	Query       int     `json:"query"`
	Text        string  `json:"text"`
	NsPerOp     int64   `json:"ns_per_op"`
	NsPerOpFull int64   `json:"ns_per_op_full"`
	NsPerOp1    int64   `json:"ns_per_op_limit1"`
	NsPerOp100  int64   `json:"ns_per_op_limit100"`
	Speedup     float64 `json:"speedup"`
	Matches     int     `json:"matches"`
}

// JSONLimitImpact renders the limit-pushdown rows as indented JSON, the
// payload of the BENCH_limit.json artifact.
func JSONLimitImpact(rows []LimitRow) ([]byte, error) {
	out := make([]limitJSONRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, limitJSONRow{
			Query:       r.ID,
			Text:        r.Query,
			NsPerOp:     r.Limited[1].Nanoseconds(),
			NsPerOpFull: r.Full.Nanoseconds(),
			NsPerOp1:    r.Limited[0].Nanoseconds(),
			NsPerOp100:  r.Limited[2].Nanoseconds(),
			Speedup:     r.Speedup(1),
			Matches:     r.N,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// plannerJSONRow is the machine-readable shape of one PlannerRow.
type plannerJSONRow struct {
	Query      int     `json:"query"`
	Text       string  `json:"text"`
	NsPerOp    int64   `json:"ns_per_op"`
	NsPerOpOff int64   `json:"ns_per_op_unplanned"`
	Speedup    float64 `json:"speedup"`
	Matches    int     `json:"matches"`
}

// JSONPlannerImpact renders the planner rows as indented JSON, the payload
// of the BENCH_planner.json artifact.
func JSONPlannerImpact(rows []PlannerRow) ([]byte, error) {
	out := make([]plannerJSONRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, plannerJSONRow{
			Query:      r.ID,
			Text:       r.Query,
			NsPerOp:    r.Planned.Nanoseconds(),
			NsPerOpOff: r.Unplanned.Nanoseconds(),
			Speedup:    r.Speedup(),
			Matches:    r.N,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// parallelJSONRow is the machine-readable shape of one ParallelRow.
type parallelJSONRow struct {
	Query      int     `json:"query"`
	Text       string  `json:"text"`
	Workers    int     `json:"workers"`
	NsPerOp    int64   `json:"ns_per_op"`
	NsPerOpOff int64   `json:"ns_per_op_serial"`
	Speedup    float64 `json:"speedup"`
	Matches    int     `json:"matches"`
}

// JSONParallel renders the parallel-scaling rows as indented JSON, the
// payload of the BENCH_parallel.json artifact.
func JSONParallel(rows []ParallelRow) ([]byte, error) {
	out := make([]parallelJSONRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, parallelJSONRow{
			Query:      r.ID,
			Text:       r.Query,
			Workers:    r.Workers,
			NsPerOp:    r.Parallel.Nanoseconds(),
			NsPerOpOff: r.Serial.Nanoseconds(),
			Speedup:    r.Speedup(),
			Matches:    r.Matches,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// WriteParallel renders the parallel-scaling measurements.
func WriteParallel(w io.Writer, rows []ParallelRow) {
	fmt.Fprintf(w, "Parallel scaling: serial engine vs sharded EvalParallel (s)\n")
	fmt.Fprintf(w, "%-4s %-30s %8s %10s %10s %9s %9s\n",
		"Q", "Query", "workers", "serial", "parallel", "speedup", "matches")
	for _, r := range rows {
		fmt.Fprintf(w, "Q%-3d %-30s %8d %10s %10s %8.2fx %9d\n",
			r.ID, r.Query, r.Workers, secs(r.Serial), secs(r.Parallel), r.Speedup(), r.Matches)
	}
}

// CSVParallel renders the parallel-scaling rows as CSV.
func CSVParallel(rows []ParallelRow) string {
	var b strings.Builder
	b.WriteString("query,workers,serial_s,parallel_s,speedup,matches\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%d,%d,%f,%f,%f,%d\n",
			r.ID, r.Workers, r.Serial.Seconds(), r.Parallel.Seconds(), r.Speedup(), r.Matches)
	}
	return b.String()
}

// CSVFig7or8 renders the timing rows as CSV.
func CSVFig7or8(rows []SystemTiming) string {
	var b strings.Builder
	b.WriteString("query,lpath_s,tgrep_s,corpussearch_s,n_lpath,n_tgrep,n_cs\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%d,%f,%f,%f,%d,%d,%d\n",
			r.ID, r.LPath.Seconds(), r.TGrep.Seconds(), r.CS.Seconds(),
			r.NLPath, r.NTGrep, r.NCS)
	}
	return b.String()
}

// CSVFig9 renders the scalability curves as CSV.
func CSVFig9(curves map[int][]ScalePoint) string {
	var b strings.Builder
	b.WriteString("query,factor,nodes,lpath_s,tgrep_s,corpussearch_s\n")
	for _, id := range Fig9Queries {
		for _, pt := range curves[id] {
			fmt.Fprintf(&b, "Q%d,%.2f,%d,%f,%f,%f\n",
				id, pt.Factor, pt.Nodes, pt.LPath.Seconds(), pt.TGrep.Seconds(), pt.CS.Seconds())
		}
	}
	return b.String()
}

// CSVFig10 renders the labeling comparison as CSV.
func CSVFig10(rows []LabelTiming) string {
	var b strings.Builder
	b.WriteString("query,lpath_s,xpath_s,results\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%d,%f,%f,%d\n", r.ID, r.LPath.Seconds(), r.XPath.Seconds(), r.NLPath)
	}
	return b.String()
}
