package blame

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// The fmt-based report writer WriteHTML replaced, kept as its test
// oracle: every section is rendered through fmt.Fprintf into one
// strings.Builder, the payload is marshaled last, and the document goes
// to w in a single write. Its heatmap walks the full n×n grid and draws
// the blamed cells over one patterned rect, each with the line the
// full-grid writer drew for it (oracleCellRect). WriteHTML must produce
// the same bytes and the same errors. Below it, Merge's map-and-sort
// matrix step is the oracle for the one-pass merge and, fed a
// timeline's shares, for the collector's dense table
// (checkBlameInvariants), and strconv.AppendFloat is the oracle for
// appendFixed.

func oracleProcName(m ReportMeta, i int) string {
	if i >= 0 && i < len(m.Procs) {
		return fmt.Sprintf("%s#%d", m.Procs[i], i)
	}
	return fmt.Sprintf("proc %d", i)
}

// htmlPayload is the embedded JSON document as the oracle marshals it.
type htmlPayload struct {
	Meta  ReportMeta `json:"meta"`
	Blame *Report    `json:"blame"`
	SLO   *SLOResult `json:"slo,omitempty"`
}

// oracleWriteHTML renders the whole document the way WriteHTML did
// before it streamed, with the patterned heatmap grid.
func oracleWriteHTML(w io.Writer, meta ReportMeta, rpt *Report, slo *SLOResult) error {
	if rpt == nil {
		return fmt.Errorf("blame: WriteHTML needs a report")
	}
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>wait-blame report · %s under %s</title>\n",
		html.EscapeString(meta.Workload), html.EscapeString(meta.Policy))
	b.WriteString("<style>\n" + reportCSS + "</style>\n</head>\n<body>\n")

	fmt.Fprintf(&b, "<h1>Causal wait-attribution report</h1>\n<p class=\"sub\">workload <b>%s</b> · policy <b>%s</b> · %d waitlisted periods · %d denies</p>\n",
		html.EscapeString(meta.Workload), html.EscapeString(meta.Policy),
		len(rpt.Periods), rpt.Denies)

	oracleSummary(&b, rpt, slo)
	oraclePathBar(&b, rpt.Path)
	oracleHeatmap(&b, meta, rpt)
	oracleTopK(&b, meta, rpt, 10)
	if slo != nil {
		oracleBurnTimeline(&b, slo)
	}

	// Machine-readable payload, last so readers see the visuals first.
	b.WriteString("<script type=\"application/json\" id=\"rda-data\">")
	data, err := json.Marshal(htmlPayload{Meta: meta, Blame: rpt, SLO: slo})
	if err != nil {
		return fmt.Errorf("blame: %w", err)
	}
	b.Write(data)
	b.WriteString("</script>\n</body>\n</html>\n")
	_, err = io.WriteString(w, b.String())
	return err
}

func oracleSecs(d sim.Duration) string { return fmt.Sprintf("%.6f s", d.Seconds()) }

func oracleSummary(b *strings.Builder, rpt *Report, slo *SLOResult) {
	pct := func(part sim.Duration) string {
		if rpt.TotalWait == 0 {
			return "–"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(rpt.TotalWait))
	}
	b.WriteString("<div class=\"cards\">\n")
	fmt.Fprintf(b, "<div class=\"card\">total wait<b>%s</b></div>\n", oracleSecs(rpt.TotalWait))
	fmt.Fprintf(b, "<div class=\"card\">blamed<b>%s (%s)</b></div>\n", oracleSecs(rpt.TotalBlamed), pct(rpt.TotalBlamed))
	fmt.Fprintf(b, "<div class=\"card\">unattributed<b>%s (%s)</b></div>\n", oracleSecs(rpt.TotalUnattributed), pct(rpt.TotalUnattributed))
	if slo != nil {
		fmt.Fprintf(b, "<div class=\"card\">SLO admissions / breaches<b>%d / %d</b></div>\n", slo.Admissions, slo.Breaches)
		fmt.Fprintf(b, "<div class=\"card\">burn alerts<b>%d</b></div>\n", slo.Alerts)
	}
	b.WriteString("</div>\n")
}

// oraclePathBar renders the makespan decomposition as one stacked bar.
func oraclePathBar(b *strings.Builder, p Path) {
	if p.Makespan <= 0 {
		return
	}
	b.WriteString("<h2>Critical path: where the makespan went</h2>\n")
	const width, height = 720.0, 28.0
	type seg struct {
		name  string
		d     sim.Duration
		color string
	}
	segs := []seg{
		{"run", p.Run, "#4a90d9"},
		{"wait (blamed)", p.WaitBlamed, "#d95f4a"},
		{"wait (unattributed)", p.WaitUnattributed, "#e8b84a"},
		{"idle", p.Idle, "#cccccc"},
	}
	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" role=\"img\" aria-label=\"makespan decomposition\">\n", width, height)
	x := 0.0
	for _, s := range segs {
		w := width * float64(s.d) / float64(p.Makespan)
		if w > 0 {
			fmt.Fprintf(b, "<rect x=\"%.2f\" y=\"0\" width=\"%.2f\" height=\"%.0f\" fill=\"%s\"><title>%s: %s</title></rect>\n",
				x, w, height, s.color, s.name, oracleSecs(s.d))
		}
		x += w
	}
	b.WriteString("</svg>\n<p class=\"sub\">")
	for i, s := range segs {
		if i > 0 {
			b.WriteString(" · ")
		}
		fmt.Fprintf(b, "<span style=\"color:%s\">■</span> %s %s", s.color, s.name, oracleSecs(s.d))
	}
	b.WriteString("</p>\n")
}

// oracleHeatmapProcs returns the processes the heatmap's rows and columns
// show, sorted, and the worst cell's blamed wait, which shades 1.
func oracleHeatmapProcs(rpt *Report) ([]int, sim.Duration) {
	procSet := map[int]bool{}
	var max sim.Duration
	for _, c := range rpt.Matrix {
		procSet[c.BlockerProc], procSet[c.WaiterProc] = true, true
		if c.Blamed > max {
			max = c.Blamed
		}
	}
	procs := make([]int, 0, len(procSet))
	for p := range procSet {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	return procs, max
}

// oracleCellRect is the titled <rect> of cell (bi, wi) in procs, blamed
// v of the worst cell's max: the line the full-grid writer drew for
// every cell, blamed or not.
func oracleCellRect(meta ReportMeta, procs []int, bi, wi int, v, max sim.Duration) string {
	const cell, label = 34.0, 120.0
	frac := 0.0
	if max > 0 {
		frac = float64(v) / float64(max)
	}
	return fmt.Sprintf("<rect x=\"%.1f\" y=\"%.1f\" width=\"%.0f\" height=\"%.0f\" fill=\"rgba(178,34,34,%.3f)\" stroke=\"#ddd\"><title>%s → %s: %s</title></rect>\n",
		label+cell*float64(wi), label+cell*float64(bi), cell-2, cell-2, frac,
		html.EscapeString(oracleProcName(meta, procs[bi])),
		html.EscapeString(oracleProcName(meta, procs[wi])), oracleSecs(v))
}

// oracleHeatmap renders the interference matrix as an SVG grid: rows are
// blockers, columns waiters, shade ∝ blamed share of the worst cell. One
// rect filled with a one-square pattern draws the grid; each blamed cell
// is drawn over it, row by row.
func oracleHeatmap(b *strings.Builder, meta ReportMeta, rpt *Report) {
	b.WriteString("<h2>Interference matrix: who blocked whom</h2>\n")
	if len(rpt.Matrix) == 0 {
		b.WriteString("<p class=\"sub\">no blamed wait — nothing interfered.</p>\n")
		return
	}
	procs, max := oracleHeatmapProcs(rpt)
	idx := map[int]int{}
	for i, p := range procs {
		idx[p] = i
	}
	cells := map[[2]int]sim.Duration{}
	for _, c := range rpt.Matrix {
		cells[[2]int{idx[c.BlockerProc], idx[c.WaiterProc]}] = c.Blamed
	}
	const cell, label = 34.0, 120.0
	n := float64(len(procs))
	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" role=\"img\" aria-label=\"interference heatmap\">\n",
		label+cell*n+8, label+cell*n+8)
	fmt.Fprintf(b, "<defs><pattern id=\"rda-grid\" x=\"%.0f\" y=\"%.0f\" width=\"%.0f\" height=\"%.0f\" patternUnits=\"userSpaceOnUse\">"+
		"<rect x=\"1\" y=\"1\" width=\"%.0f\" height=\"%.0f\" fill=\"none\" stroke=\"#ddd\"/></pattern></defs>\n",
		label-1, label-1, cell, cell, cell-2, cell-2)
	fmt.Fprintf(b, "<rect x=\"%.0f\" y=\"%.0f\" width=\"%.0f\" height=\"%.0f\" fill=\"url(#rda-grid)\"/>\n",
		label-1, label-1, cell*n, cell*n)
	for i, p := range procs {
		// Column header (waiter), rotated; row label (blocker).
		fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%.1f\" font-size=\"11\" transform=\"rotate(-45 %.1f %.1f)\">%s</text>\n",
			label+cell*float64(i)+6, label-6, label+cell*float64(i)+6, label-6, html.EscapeString(oracleProcName(meta, p)))
		fmt.Fprintf(b, "<text x=\"4\" y=\"%.1f\" font-size=\"11\">%s</text>\n",
			label+cell*float64(i)+cell/2+4, html.EscapeString(oracleProcName(meta, p)))
	}
	for bi := range procs {
		for wi := range procs {
			if v := cells[[2]int{bi, wi}]; v != 0 {
				b.WriteString(oracleCellRect(meta, procs, bi, wi, v, max))
			}
		}
	}
	b.WriteString("</svg>\n<p class=\"sub\">rows block columns; shade ∝ blamed wait.</p>\n")
}

// oracleTopK renders the k worst-waiting periods with their top blocker.
func oracleTopK(b *strings.Builder, meta ReportMeta, rpt *Report, k int) {
	b.WriteString("<h2>Longest waits and their blockers</h2>\n")
	if len(rpt.Periods) == 0 {
		b.WriteString("<p class=\"sub\">no period was ever waitlisted.</p>\n")
		return
	}
	top := append([]PeriodBlame(nil), rpt.Periods...)
	sort.SliceStable(top, func(i, j int) bool { return top[i].Wait > top[j].Wait })
	if len(top) > k {
		top = top[:k]
	}
	b.WriteString("<table>\n<tr><th>period</th><th>rep</th><th>outcome</th><th>wait</th><th>blamed</th><th>unattributed</th><th>top blocker</th></tr>\n")
	for _, p := range top {
		topBlocker := "–"
		var best sim.Duration = -1
		for _, s := range p.Shares {
			if s.Blamed > best {
				best = s.Blamed
				topBlocker = fmt.Sprintf("%s (%s)", oracleProcName(meta, s.BlockerProc), oracleSecs(s.Blamed))
			}
		}
		fmt.Fprintf(b, "<tr><td>%s phase %d (id %d)</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(oracleProcName(meta, p.Proc)), p.Phase, p.ID, p.Rep,
			html.EscapeString(p.Outcome), oracleSecs(p.Wait), oracleSecs(p.Blamed()),
			oracleSecs(p.Unattributed), html.EscapeString(topBlocker))
	}
	b.WriteString("</table>\n")
}

// oracleBurnTimeline renders the burn-rate samples as one polyline per
// (replication, window), with the alert threshold as a dashed rule.
func oracleBurnTimeline(b *strings.Builder, slo *SLOResult) {
	b.WriteString("<h2>SLO burn rate</h2>\n")
	fmt.Fprintf(b, "<p class=\"sub\">objective: wait ≤ %s for %.1f%% of admissions · alert at %.1fx budget burn in every window</p>\n",
		oracleSecs(slo.Config.Objective), 100*slo.Config.Target, slo.Config.AlertBurn)
	if len(slo.Samples) == 0 {
		b.WriteString("<p class=\"sub\">no admissions recorded.</p>\n")
		return
	}
	const width, height, pad = 720.0, 160.0, 24.0
	var maxAt sim.Time
	maxBurn := slo.Config.AlertBurn
	for _, s := range slo.Samples {
		if s.At > maxAt {
			maxAt = s.At
		}
		for _, v := range s.Burn {
			if v > maxBurn {
				maxBurn = v
			}
		}
	}
	if maxAt == 0 {
		maxAt = 1
	}
	x := func(at sim.Time) float64 { return pad + (width-2*pad)*float64(at)/float64(maxAt) }
	y := func(v float64) float64 { return height - pad - (height-2*pad)*v/maxBurn }
	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" role=\"img\" aria-label=\"burn-rate timeline\">\n", width, height)
	fmt.Fprintf(b, "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#b22\" stroke-dasharray=\"4 3\"/>\n",
		pad, y(slo.Config.AlertBurn), width-pad, y(slo.Config.AlertBurn))
	colors := []string{"#4a90d9", "#7b4ad9", "#2e8b57", "#d9844a"}
	reps := map[int]bool{}
	for _, s := range slo.Samples {
		reps[s.Rep] = true
	}
	repList := make([]int, 0, len(reps))
	for r := range reps {
		repList = append(repList, r)
	}
	sort.Ints(repList)
	for wi := range slo.Config.Windows {
		for _, rep := range repList {
			var pts []string
			for _, s := range slo.Samples {
				if s.Rep != rep || wi >= len(s.Burn) {
					continue
				}
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", x(s.At), y(s.Burn[wi])))
			}
			if len(pts) > 0 {
				fmt.Fprintf(b, "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-opacity=\"0.8\"/>\n",
					strings.Join(pts, " "), colors[wi%len(colors)])
			}
		}
	}
	fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%.1f\" font-size=\"11\" fill=\"#b22\">alert %.1fx</text>\n",
		width-pad-60, y(slo.Config.AlertBurn)-4, slo.Config.AlertBurn)
	b.WriteString("</svg>\n<p class=\"sub\">")
	for wi, w := range slo.Config.Windows {
		if wi > 0 {
			b.WriteString(" · ")
		}
		fmt.Fprintf(b, "<span style=\"color:%s\">—</span> window %s", colors[wi%len(colors)], oracleSecs(w))
	}
	b.WriteString("</p>\n")
}

// oracleMergeMatrix is Merge's historical matrix step, and the
// collector's before its dense table: sum both matrices through a map,
// drop zero sums, sort by (BlockerProc, WaiterProc).
func oracleMergeMatrix(a, b []MatrixCell) []MatrixCell {
	cells := make(map[[2]int]sim.Duration, len(a))
	for _, c := range a {
		cells[[2]int{c.BlockerProc, c.WaiterProc}] += c.Blamed
	}
	for _, c := range b {
		cells[[2]int{c.BlockerProc, c.WaiterProc}] += c.Blamed
	}
	out := make([]MatrixCell, 0, len(cells))
	for k, v := range cells {
		if v != 0 {
			out = append(out, MatrixCell{BlockerProc: k[0], WaiterProc: k[1], Blamed: v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BlockerProc != out[j].BlockerProc {
			return out[i].BlockerProc < out[j].BlockerProc
		}
		return out[i].WaiterProc < out[j].WaiterProc
	})
	return out
}

// hostileNames are process names that must be escaped in markup and in
// the payload: markup, entities, quotes, control bytes, U+2028 and
// invalid UTF-8.
var hostileNames = []string{
	"hog", "</script><b>", "a&b", `"q'`, "tab\there\x00", "line\u2028sep", "bad\xff\xfe", "",
}

// oracleReport builds a report over up to 100 processes from fuzz
// inputs. density (out of 255) is each (blocker, waiter) cell's chance of
// a non-zero value, so 0 is an empty matrix and 255 a dense one; process
// indices are spread by stride, so some fall outside meta.Procs and
// render as "proc N". names, split on '|', prefixes the process names.
// Without withSLO the SLO result is nil.
func oracleReport(seed uint64, procs, density, stride uint8, names string, withSLO bool) (ReportMeta, *Report, *SLOResult) {
	rng := sim.NewRNG(seed)
	n := int(procs)%100 + 1
	step := int(stride)%5 + 1
	meta := ReportMeta{Workload: "fuzz<" + names + ">", Policy: "strict&"}
	meta.Procs = append(strings.Split(names, "|"), hostileNames...)
	rpt := &Report{Denies: uint64(rng.Intn(1000))}
	// Durations from one picosecond up to weeks.
	dur := func() sim.Duration {
		return sim.Duration(rng.Uint64n(1000)) * sim.Duration([]int64{1, 1e3, 1e9, 1e12, 3e15}[rng.Intn(5)])
	}
	for b := 0; b < n; b++ {
		for w := 0; w < n; w++ {
			if rng.Intn(255) < int(density) {
				if v := dur(); v != 0 {
					rpt.Matrix = append(rpt.Matrix, MatrixCell{BlockerProc: b * step, WaiterProc: w * step, Blamed: v})
					rpt.TotalBlamed += v
				}
			}
		}
	}
	for i := rng.Intn(15); i > 0; i-- {
		p := PeriodBlame{
			Rep: rng.Intn(3), Proc: rng.Intn(n+2)*step - 1, Phase: rng.Intn(4),
			Outcome: []string{"wake", "fallback", "unfinished", "<odd>"}[rng.Intn(4)],
			Wait:    dur(), Unattributed: dur(),
		}
		for j := rng.Intn(4); j > 0; j-- {
			p.Shares = append(p.Shares, Share{BlockerProc: rng.Intn(n) * step, Blamed: dur()})
		}
		rpt.Periods = append(rpt.Periods, p)
		rpt.TotalWait += p.Wait
		rpt.TotalUnattributed += p.Unattributed
	}
	if rng.Intn(4) > 0 {
		rpt.Path = Path{Run: dur(), WaitBlamed: dur(), WaitUnattributed: dur(), Idle: dur()}
		rpt.Path.Makespan = rpt.Path.Run + rpt.Path.WaitBlamed + rpt.Path.WaitUnattributed + rpt.Path.Idle
	}
	if !withSLO {
		return meta, rpt, nil
	}
	cfg := DefaultSLOConfig()
	slo := &SLOResult{Config: cfg, Admissions: uint64(rng.Intn(100)), Alerts: uint64(rng.Intn(3)),
		MaxBurn: make([]float64, len(cfg.Windows))}
	for i := rng.Intn(40); i > 0; i-- {
		s := BurnSample{Rep: rng.Intn(2), At: sim.Time(dur())}
		for range cfg.Windows {
			s.Burn = append(s.Burn, 5*rng.Float64())
		}
		slo.Samples = append(slo.Samples, s)
	}
	return meta, rpt, slo
}

// checkHTMLAgainstOracle renders one report through both writers and
// requires the same bytes and the same error.
func checkHTMLAgainstOracle(t *testing.T, meta ReportMeta, rpt *Report, slo *SLOResult) {
	t.Helper()
	var got, want bytes.Buffer
	gerr := WriteHTML(&got, meta, rpt, slo)
	werr := oracleWriteHTML(&want, meta, rpt, slo)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("WriteHTML error %v, oracle %v", gerr, werr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.String(), want.String()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("WriteHTML differs from the oracle at byte %d of %d/%d:\n got  %q\n want %q",
			i, len(g), len(w), g[i:min(i+120, len(g))], w[i:min(i+120, len(w))])
	}
}

func FuzzHTMLMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, procs, density, stride uint8, names string, withSLO bool) {
		meta, rpt, slo := oracleReport(seed, procs, density, stride, names, withSLO)
		checkHTMLAgainstOracle(t, meta, rpt, slo)
	})
}

// TestHTMLMatchesOracle sweeps fixed seeds through FuzzHTMLMatchesOracle's
// check, plus a collector-built report, a nil report and a payload that
// cannot be encoded.
func TestHTMLMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := sim.NewRNG(seed ^ 0x47a1)
		b := func() uint8 { return uint8(rng.Intn(256)) }
		meta, rpt, slo := oracleReport(seed, b(), b(), b(), hostileNames[seed%uint64(len(hostileNames))], seed%3 > 0)
		checkHTMLAgainstOracle(t, meta, rpt, slo)
	}
	rpt, slo := sampleReportAndSLO(t)
	meta := ReportMeta{Workload: "contended", Policy: "strict", Procs: []string{"hog", "hog", "small"}}
	checkHTMLAgainstOracle(t, meta, rpt, slo)
	checkHTMLAgainstOracle(t, meta, rpt, nil)
	checkHTMLAgainstOracle(t, meta, nil, slo)
	// Nil slices marshal as null and empty ones as [], except a
	// period's Shares, which is omitted either way.
	checkHTMLAgainstOracle(t, ReportMeta{}, &Report{}, &SLOResult{})
	checkHTMLAgainstOracle(t, ReportMeta{Procs: []string{}},
		&Report{Periods: []PeriodBlame{{Shares: []Share{}}, {}}, Matrix: []MatrixCell{}},
		&SLOResult{Config: SLOConfig{Windows: []sim.Duration{}}, MaxBurn: []float64{},
			Samples: []BurnSample{{Burn: []float64{}}, {}}})
	// Waits drawn from three values, so most of the top ten tie and
	// their rows must keep the periods' order.
	rng := sim.NewRNG(0x70bc)
	ties := &Report{}
	for i := 0; i < 40; i++ {
		ties.Periods = append(ties.Periods, PeriodBlame{ID: pp.ID(i), Wait: sim.Duration(rng.Intn(3))})
	}
	checkHTMLAgainstOracle(t, meta, ties, nil)

	// NaN and ±Inf in each SLO float, alone and behind an earlier bad
	// one: nothing written and json.Marshal's error, which names the
	// first bad value in Marshal's order.
	set := []func(r *SLOResult, v float64){
		func(r *SLOResult, v float64) { r.Config.Target = v },
		func(r *SLOResult, v float64) { r.Config.AlertBurn = v },
		func(r *SLOResult, v float64) { r.MaxBurn[1] = v },
		func(r *SLOResult, v float64) { r.Samples[0].Burn[0] = v },
		func(r *SLOResult, v float64) { r.Samples[len(r.Samples)-1].Burn[1] = v },
	}
	for i := range set {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for j := i; j < len(set); j++ {
				bad := *slo
				bad.MaxBurn = append([]float64(nil), slo.MaxBurn...)
				bad.Samples = append([]BurnSample(nil), slo.Samples...)
				for k := range bad.Samples {
					bad.Samples[k].Burn = append([]float64(nil), bad.Samples[k].Burn...)
				}
				set[i](&bad, v)
				if j > i {
					set[j](&bad, -v)
				}
				var buf bytes.Buffer
				if err := WriteHTML(&buf, meta, rpt, &bad); err == nil || buf.Len() != 0 {
					t.Fatalf("SLO float %d = %v, float %d = %v: err %v, %d bytes written; want an error and nothing",
						i, v, j, -v, err, buf.Len())
				}
				checkHTMLAgainstOracle(t, meta, rpt, &bad)
			}
		}
	}
}

// heatmapCellRects returns the titled <rect> lines of doc's heatmap
// <svg>, newline included, in document order.
func heatmapCellRects(t *testing.T, doc string) []string {
	t.Helper()
	_, svg, ok := strings.Cut(doc, `aria-label="interference heatmap">`)
	if !ok {
		return nil
	}
	svg, _, ok = strings.Cut(svg, "</svg>")
	if !ok {
		t.Fatal("heatmap <svg> is not closed")
	}
	var rects []string
	for _, line := range strings.SplitAfter(svg, "\n") {
		if strings.HasPrefix(line, "<rect ") && strings.Contains(line, "<title>") {
			rects = append(rects, line)
		}
	}
	return rects
}

// TestHeatmapDrawsBlamedCells renders oracleReport's reports, dense and
// sparse, and requires one titled cell <rect> per matrix cell, in the
// matrix's order, each the line the full-grid writer drew for that cell.
func TestHeatmapDrawsBlamedCells(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		rng := sim.NewRNG(seed ^ 0x4ea7)
		b := func() uint8 { return uint8(rng.Intn(256)) }
		meta, rpt, _ := oracleReport(seed, b(), b(), b(), "h|<m>", false)
		var doc bytes.Buffer
		if err := WriteHTML(&doc, meta, rpt, nil); err != nil {
			t.Fatal(err)
		}
		rects := heatmapCellRects(t, doc.String())
		if len(rects) != len(rpt.Matrix) {
			t.Fatalf("seed %d: %d titled cell rects for %d matrix cells", seed, len(rects), len(rpt.Matrix))
		}
		procs, max := oracleHeatmapProcs(rpt)
		for k, c := range rpt.Matrix {
			bi, _ := slices.BinarySearch(procs, c.BlockerProc)
			wi, _ := slices.BinarySearch(procs, c.WaiterProc)
			if want := oracleCellRect(meta, procs, bi, wi, c.Blamed, max); rects[k] != want {
				t.Fatalf("seed %d: cell %d (%d → %d):\n got  %q\n want %q", seed, k, c.BlockerProc, c.WaiterProc, rects[k], want)
			}
		}
	}
}

// TestHTMLConcurrentWriters writes reports of several sizes from four
// goroutines at once, as parallel jobs do, and requires each to match the
// oracle's: a pooled writer must carry nothing from one report into
// another.
func TestHTMLConcurrentWriters(t *testing.T) {
	type doc struct {
		meta ReportMeta
		rpt  *Report
		slo  *SLOResult
		want []byte
	}
	var docs []doc
	for seed := uint64(0); seed < 6; seed++ {
		meta, rpt, slo := oracleReport(seed, uint8(seed*40), uint8(seed*50), 1, "c", seed%2 == 0)
		var b bytes.Buffer
		if err := oracleWriteHTML(&b, meta, rpt, slo); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc{meta, rpt, slo, b.Bytes()})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				d := docs[(g+i)%len(docs)]
				var b bytes.Buffer
				if err := WriteHTML(&b, d.meta, d.rpt, d.slo); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(b.Bytes(), d.want) {
					t.Errorf("goroutine %d, report %d differs from the oracle", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMergeMatchesOracle folds random reports, whose matrices hold the
// (BlockerProc, WaiterProc) order with zero cells omitted, through Merge
// and through the map-and-sort oracle. Negative cells let sums cancel to
// zero, which both must drop.
func TestMergeMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := sim.NewRNG(seed)
		n := rng.Intn(12) + 1
		matrix := func() []MatrixCell {
			var out []MatrixCell
			for b := 0; b < n; b++ {
				for w := 0; w < n; w++ {
					if rng.Intn(3) == 0 {
						if v := sim.Duration(rng.Intn(7) - 2); v != 0 {
							out = append(out, MatrixCell{BlockerProc: b - 1, WaiterProc: w, Blamed: v})
						}
					}
				}
			}
			return out
		}
		var got Report
		var want []MatrixCell
		for rep := rng.Intn(5); rep >= 0; rep-- {
			other := &Report{Matrix: matrix()}
			want = oracleMergeMatrix(want, other.Matrix)
			got.Merge(other)
		}
		if !reflect.DeepEqual(got.Matrix, want) {
			t.Fatalf("seed %d: Merge matrix\n%v\nwant\n%v", seed, got.Matrix, want)
		}
	}
}

// fixedPrecs are the precisions the report prints: %.0f, %.1f, %.3f and
// %.6f.
var fixedPrecs = []int{0, 1, 3, 6}

// checkFixed requires appendFixed(x, p) to append exactly what
// strconv.AppendFloat(x, 'f', p, 64) does, for every p in fixedPrecs.
func checkFixed(t *testing.T, x float64) {
	t.Helper()
	for _, p := range fixedPrecs {
		want := strconv.AppendFloat([]byte("x="), x, 'f', p, 64)
		if got := appendFixed([]byte("x="), x, p); !bytes.Equal(got, want) {
			t.Fatalf("appendFixed(%v [bits %#x], %d) = %q, strconv gives %q",
				x, math.Float64bits(x), p, got, want)
		}
	}
}

// checkNearTies runs checkFixed on the rounding tie nearest x at each
// precision, (⌊x·10^p⌋ + 1/2)/10^p as a float, and on the ulps floats
// either side of it.
func checkNearTies(t *testing.T, x float64, ulps int) {
	t.Helper()
	for _, p := range fixedPrecs {
		scale := float64(pow10[p])
		tie := (math.Floor(x*scale) + 0.5) / scale
		checkFixed(t, tie)
		lo, hi := tie, tie
		for i := 0; i < ulps; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			checkFixed(t, lo)
			checkFixed(t, hi)
		}
	}
}

func FuzzAppendFixedMatchesStrconv(f *testing.F) {
	f.Fuzz(func(t *testing.T, x float64, ulps uint8) {
		checkFixed(t, x)
		checkNearTies(t, x, int(ulps%8))
	})
}

// TestAppendFixedMatchesStrconv runs the formatter oracle over the values
// the fast path must refuse or round exactly: signed zeros, negatives,
// non-finite values, exact integers, exact binary ties, the decimal ties
// k/1000 + 0.0005 and their neighbours, both sides of the 2^32 bound at
// every precision, and random values shaped like the report's inputs
// (shades in [0, 1], durations in seconds, polyline coordinates).
func TestAppendFixedMatchesStrconv(t *testing.T) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), -1e-9, -1, -0.5, -2.5e6, math.NaN(), math.Inf(1), math.Inf(-1),
		1, 2, 3, 42, 1e6, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 53, 1e21, math.MaxFloat64,
		0.5, 1.5, 2.5, 0.25, 0.125, 0.0625, 0.1875, 0.05, 0.15, 0.0005, 0.0015, 0.0025,
		sim.Duration(1_500_000).Seconds(), sim.Duration(2_500_000).Seconds(), 5e-324, 1e-7,
	} {
		checkFixed(t, x)
		checkNearTies(t, x, 3)
	}
	for k := 0; k < 1000; k++ {
		x := float64(k)/1000 + 0.0005
		checkFixed(t, x)
		for i, lo, hi := 0, x, x; i < 3; i++ {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 2)
			checkFixed(t, lo)
			checkFixed(t, hi)
		}
	}
	for _, p := range fixedPrecs {
		scale := float64(pow10[p])
		for _, m := range []float64{1<<32 - 1, 1<<32 - 0.5, 1 << 32, 1<<32 + 0.5} {
			checkNearTies(t, m/scale, 3)
		}
	}
	rng := sim.NewRNG(0xf1ed)
	for i := 0; i < 5000; i++ {
		checkFixed(t, rng.Float64())
		checkFixed(t, sim.Duration(rng.Uint64n(1<<44)).Seconds())
		checkFixed(t, 720*rng.Float64())
		checkNearTies(t, 5000*rng.Float64(), 1)
	}
}
