package blame

import (
	"bufio"
	"encoding/json"
	"fmt"
	"html"
	"io"
	"sort"
	"strconv"
	"strings"

	"rdasched/internal/sim"
)

// Self-contained HTML observability report: one file, stdlib only, no
// external scripts, stylesheets, or fonts. The machine-readable payload
// is embedded as a <script type="application/json" id="rda-data">
// block (encoding/json escapes <, >, & by default, so the document
// cannot be broken by data), and the visuals — interference heatmap,
// wait-blame top-K table, burn-rate timeline, critical-path bar — are
// inline SVG rendered at write time. Nothing in the document derives
// from the wall clock, so a deterministic run writes a byte-identical
// report.
//
// The document streams to the writer through a bufio.Writer, section by
// section. The heatmap, the only section whose size grows with the
// square of the process count, appends each cell's <rect> with strconv
// from strings computed once per row, column and process name.
// oracle_test.go keeps a fmt-based writer that WriteHTML must match
// byte for byte.

// ReportMeta labels an HTML report.
type ReportMeta struct {
	// Workload and Policy name the configuration.
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	// Procs maps process index to name (the decision stream's Proc is
	// the workload process index). Missing entries render as "proc N".
	Procs []string `json:"procs"`
}

func (m ReportMeta) procName(i int) string {
	if i >= 0 && i < len(m.Procs) {
		return fmt.Sprintf("%s#%d", m.Procs[i], i)
	}
	return fmt.Sprintf("proc %d", i)
}

// htmlPayload is the embedded JSON document.
type htmlPayload struct {
	Meta  ReportMeta `json:"meta"`
	Blame *Report    `json:"blame"`
	SLO   *SLOResult `json:"slo,omitempty"`
}

// WriteHTML writes the report (and, when non-nil, the SLO evaluation)
// as one self-contained HTML document. The embedded payload is encoded
// before anything is written, so an encoding error writes nothing.
func WriteHTML(w io.Writer, meta ReportMeta, rpt *Report, slo *SLOResult) error {
	if rpt == nil {
		return fmt.Errorf("blame: WriteHTML needs a report")
	}
	data, err := json.Marshal(htmlPayload{Meta: meta, Blame: rpt, SLO: slo})
	if err != nil {
		return fmt.Errorf("blame: %w", err)
	}
	b := bufio.NewWriterSize(w, 64<<10)
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(b, "<title>wait-blame report · %s under %s</title>\n",
		html.EscapeString(meta.Workload), html.EscapeString(meta.Policy))
	b.WriteString("<style>\n" + reportCSS + "</style>\n</head>\n<body>\n")

	fmt.Fprintf(b, "<h1>Causal wait-attribution report</h1>\n<p class=\"sub\">workload <b>%s</b> · policy <b>%s</b> · %d waitlisted periods · %d denies</p>\n",
		html.EscapeString(meta.Workload), html.EscapeString(meta.Policy),
		len(rpt.Periods), rpt.Denies)

	writeSummary(b, rpt, slo)
	writePathBar(b, rpt.Path)
	writeHeatmap(b, meta, rpt)
	writeTopK(b, meta, rpt, 10)
	if slo != nil {
		writeBurnTimeline(b, slo)
	}

	// Machine-readable payload, last so readers see the visuals first.
	b.WriteString("<script type=\"application/json\" id=\"rda-data\">")
	b.Write(data)
	b.WriteString("</script>\n</body>\n</html>\n")
	return b.Flush()
}

const reportCSS = `body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:60em;color:#222}
h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em}.sub{color:#666}
table{border-collapse:collapse;margin:1em 0}td,th{border:1px solid #ccc;padding:.3em .6em;text-align:right}
th{background:#f4f4f4}td:first-child,th:first-child{text-align:left}
.cards{display:flex;gap:1em;flex-wrap:wrap}.card{border:1px solid #ddd;border-radius:6px;padding:.6em 1em}
.card b{display:block;font-size:1.3em}svg{margin:.5em 0}
`

func secs(d sim.Duration) string { return string(appendSecs(nil, d)) }

// appendSecs appends d in seconds with six decimals, the bytes fmt's
// "%.6f s" gives: %.6f makes this same AppendFloat call.
func appendSecs(dst []byte, d sim.Duration) []byte {
	return append(strconv.AppendFloat(dst, d.Seconds(), 'f', 6, 64), " s"...)
}

func writeSummary(b *bufio.Writer, rpt *Report, slo *SLOResult) {
	pct := func(part sim.Duration) string {
		if rpt.TotalWait == 0 {
			return "–"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(rpt.TotalWait))
	}
	b.WriteString("<div class=\"cards\">\n")
	fmt.Fprintf(b, "<div class=\"card\">total wait<b>%s</b></div>\n", secs(rpt.TotalWait))
	fmt.Fprintf(b, "<div class=\"card\">blamed<b>%s (%s)</b></div>\n", secs(rpt.TotalBlamed), pct(rpt.TotalBlamed))
	fmt.Fprintf(b, "<div class=\"card\">unattributed<b>%s (%s)</b></div>\n", secs(rpt.TotalUnattributed), pct(rpt.TotalUnattributed))
	if slo != nil {
		fmt.Fprintf(b, "<div class=\"card\">SLO admissions / breaches<b>%d / %d</b></div>\n", slo.Admissions, slo.Breaches)
		fmt.Fprintf(b, "<div class=\"card\">burn alerts<b>%d</b></div>\n", slo.Alerts)
	}
	b.WriteString("</div>\n")
}

// writePathBar renders the makespan decomposition as one stacked bar.
func writePathBar(b *bufio.Writer, p Path) {
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
				x, w, height, s.color, s.name, secs(s.d))
		}
		x += w
	}
	b.WriteString("</svg>\n<p class=\"sub\">")
	for i, s := range segs {
		if i > 0 {
			b.WriteString(" · ")
		}
		fmt.Fprintf(b, "<span style=\"color:%s\">■</span> %s %s", s.color, s.name, secs(s.d))
	}
	b.WriteString("</p>\n")
}

// writeHeatmap renders the interference matrix as an SVG grid: rows are
// blockers, columns waiters, shade ∝ blamed share of the worst cell.
func writeHeatmap(b *bufio.Writer, meta ReportMeta, rpt *Report) {
	b.WriteString("<h2>Interference matrix: who blocked whom</h2>\n")
	if len(rpt.Matrix) == 0 {
		b.WriteString("<p class=\"sub\">no blamed wait — nothing interfered.</p>\n")
		return
	}
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
	n := len(procs)
	idx := make(map[int]int, n)
	for i, p := range procs {
		idx[p] = i
	}
	cells := make([]sim.Duration, n*n) // cells[blocker*n + waiter]
	for _, c := range rpt.Matrix {
		cells[idx[c.BlockerProc]*n+idx[c.WaiterProc]] = c.Blamed
	}
	const cell, label = 34.0, 120.0
	w := label + cell*float64(n) + 8
	h := label + cell*float64(n) + 8
	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" role=\"img\" aria-label=\"interference heatmap\">\n", w, h)
	// A process's name and its grid offset serve as its row (blocker)
	// and its column (waiter) alike: format each once.
	names := make([]string, n)
	offsets := make([]string, n)
	for i, p := range procs {
		names[i] = html.EscapeString(meta.procName(p))
		offsets[i] = strconv.FormatFloat(label+cell*float64(i), 'f', 1, 64)
		// Column header (waiter), rotated; row label (blocker).
		fmt.Fprintf(b, "<text x=\"%.1f\" y=\"%.1f\" font-size=\"11\" transform=\"rotate(-45 %.1f %.1f)\">%s</text>\n",
			label+cell*float64(i)+6, label-6, label+cell*float64(i)+6, label-6, names[i])
		fmt.Fprintf(b, "<text x=\"4\" y=\"%.1f\" font-size=\"11\">%s</text>\n",
			label+cell*float64(i)+cell/2+4, names[i])
	}
	size := strconv.FormatFloat(cell-2, 'f', 0, 64)
	var buf []byte
	for bi := range procs {
		for wi := range procs {
			v := cells[bi*n+wi]
			frac := 0.0
			if max > 0 {
				frac = float64(v) / float64(max)
			}
			buf = append(buf[:0], "<rect x=\""...)
			buf = append(buf, offsets[wi]...)
			buf = append(buf, "\" y=\""...)
			buf = append(buf, offsets[bi]...)
			buf = append(buf, "\" width=\""...)
			buf = append(buf, size...)
			buf = append(buf, "\" height=\""...)
			buf = append(buf, size...)
			buf = append(buf, "\" fill=\"rgba(178,34,34,"...)
			buf = strconv.AppendFloat(buf, frac, 'f', 3, 64)
			buf = append(buf, ")\" stroke=\"#ddd\"><title>"...)
			buf = append(buf, names[bi]...)
			buf = append(buf, " → "...)
			buf = append(buf, names[wi]...)
			buf = append(buf, ": "...)
			buf = appendSecs(buf, v)
			buf = append(buf, "</title></rect>\n"...)
			b.Write(buf)
		}
	}
	b.WriteString("</svg>\n<p class=\"sub\">rows block columns; shade ∝ blamed wait.</p>\n")
}

// writeTopK renders the k worst-waiting periods with their top blocker.
func writeTopK(b *bufio.Writer, meta ReportMeta, rpt *Report, k int) {
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
				topBlocker = fmt.Sprintf("%s (%s)", meta.procName(s.BlockerProc), secs(s.Blamed))
			}
		}
		fmt.Fprintf(b, "<tr><td>%s phase %d (id %d)</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(meta.procName(p.Proc)), p.Phase, p.ID, p.Rep,
			html.EscapeString(p.Outcome), secs(p.Wait), secs(p.Blamed()),
			secs(p.Unattributed), html.EscapeString(topBlocker))
	}
	b.WriteString("</table>\n")
}

// writeBurnTimeline renders the burn-rate samples as one polyline per
// (replication, window), with the alert threshold as a dashed rule.
func writeBurnTimeline(b *bufio.Writer, slo *SLOResult) {
	b.WriteString("<h2>SLO burn rate</h2>\n")
	fmt.Fprintf(b, "<p class=\"sub\">objective: wait ≤ %s for %.1f%% of admissions · alert at %.1fx budget burn in every window</p>\n",
		secs(slo.Config.Objective), 100*slo.Config.Target, slo.Config.AlertBurn)
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
		fmt.Fprintf(b, "<span style=\"color:%s\">—</span> window %s", colors[wi%len(colors)], secs(w))
	}
	b.WriteString("</p>\n")
}
