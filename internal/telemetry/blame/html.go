package blame

import (
	"bufio"
	"fmt"
	"html"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"rdasched/internal/sim"
	"rdasched/internal/telemetry/trace"
)

// Self-contained HTML observability report: one file, stdlib only, no
// external scripts, stylesheets, or fonts. The machine-readable payload
// is embedded as a <script type="application/json" id="rda-data">
// block (its strings carry encoding/json's escapes of <, >, &, so the
// document cannot be broken by data), and the visuals — interference
// heatmap, wait-blame top-K table, burn-rate timeline, critical-path
// bar — are inline SVG rendered at write time. Nothing in the document
// derives from the wall clock, so a deterministic run writes a
// byte-identical report.
//
// The document streams to the writer through a bufio.Writer, section by
// section; the 64 KiB writers are pooled across reports. The heatmap
// draws its n×n grid once, as one rect filled with a one-square
// <pattern>, and then one titled <rect> per blamed (nonzero) cell of the
// matrix, so it grows with the pairs that interfered, not with the
// square of the process count. Each cell's <rect> is appended with
// strconv from strings computed once per process, and its
// fixed-precision numbers through appendFixed. The payload is appended
// field by field in the bytes json.Marshal gives, with trace's JSON
// float and string appenders. oracle_test.go keeps a fmt- and
// json.Marshal-based writer that WriteHTML must match byte for byte.

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

// WriteHTML writes the report (and, when non-nil, the SLO evaluation)
// as one self-contained HTML document. The embedded payload holds what
// json.Marshal gives {"meta": meta, "blame": rpt, "slo": slo}, "slo"
// omitted when nil. The SLO floats are the only payload values
// encoding/json refuses, so they are checked before anything is
// written: a NaN or infinite one writes nothing and returns
// json.Marshal's error.
func WriteHTML(w io.Writer, meta ReportMeta, rpt *Report, slo *SLOResult) error {
	if rpt == nil {
		return fmt.Errorf("blame: WriteHTML needs a report")
	}
	if slo != nil {
		if err := sloError(slo); err != nil {
			return fmt.Errorf("blame: %w", err)
		}
	}
	b := htmlWriters.Get().(*bufio.Writer)
	b.Reset(w)
	defer func() {
		b.Reset(nil) // drop w, so the pool does not keep it alive
		htmlWriters.Put(b)
	}()
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
	writePayload(b, meta, rpt, slo)
	b.WriteString("</script>\n</body>\n</html>\n")
	return b.Flush()
}

// htmlWriters holds WriteHTML's buffered writers between reports.
var htmlWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

const reportCSS = `body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:60em;color:#222}
h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em}.sub{color:#666}
table{border-collapse:collapse;margin:1em 0}td,th{border:1px solid #ccc;padding:.3em .6em;text-align:right}
th{background:#f4f4f4}td:first-child,th:first-child{text-align:left}
.cards{display:flex;gap:1em;flex-wrap:wrap}.card{border:1px solid #ddd;border-radius:6px;padding:.6em 1em}
.card b{display:block;font-size:1.3em}svg{margin:.5em 0}
`

func secs(d sim.Duration) string { return string(appendSecs(nil, d)) }

// appendSecs appends d in seconds with six decimals, the bytes fmt's
// "%.6f s" gives.
func appendSecs(dst []byte, d sim.Duration) []byte {
	return append(appendFixed(dst, d.Seconds(), 6), " s"...)
}

// pow10[p] is 10^p for each precision p appendFixed formats itself;
// each is exact as a float64.
var pow10 = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6}

// appendFixed appends x with prec decimals: the bytes of
// strconv.AppendFloat(dst, x, 'f', prec, 64), which fmt's %.<prec>f
// also gives, without strconv's exact big-decimal path. For m =
// x·10^prec below 2^32 the product's float error is at most 2^-21, so
// when m's computed fraction lies more than 2^-16 from one half, m and
// the exact product round to the same integer, and that integer is
// printed as digits. Negative numbers, −0, NaN, ±Inf, near-ties and
// values past the bound go to strconv.
func appendFixed(dst []byte, x float64, prec int) []byte {
	if uint(prec) < uint(len(pow10)) && x >= 0 && !math.Signbit(x) {
		if m := x * float64(pow10[prec]); m < 1<<32 {
			n := uint64(m)
			if f := m - float64(n); math.Abs(f-0.5) > 0x1p-16 {
				if f > 0.5 {
					n++
				}
				dst = strconv.AppendUint(dst, n/pow10[prec], 10)
				if prec == 0 {
					return dst
				}
				var frac [len(pow10)]byte
				for i, r := prec-1, n%pow10[prec]; i >= 0; i, r = i-1, r/10 {
					frac[i] = byte('0' + r%10)
				}
				return append(append(dst, '.'), frac[:prec]...)
			}
		}
	}
	return strconv.AppendFloat(dst, x, 'f', prec, 64)
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

// heatmapGrid draws every cell's empty square: a 34×34 tile placed at
// (119, 119) holds one 32×32 square at (1, 1), so the square of cell
// (i, j) lands on (120+34j, 120+34i), where its titled <rect> goes, and
// its 1-unit stroke stays inside the tile. writeHeatmap fills one rect
// spanning the n×n grid with it.
const heatmapGrid = `<defs><pattern id="rda-grid" x="119" y="119" width="34" height="34" patternUnits="userSpaceOnUse">` +
	`<rect x="1" y="1" width="32" height="32" fill="none" stroke="#ddd"/></pattern></defs>` + "\n"

// writeHeatmap renders the interference matrix as an SVG grid: rows are
// blockers, columns waiters, shade ∝ blamed share of the worst cell. The
// grid is one patterned rect; only blamed cells get their own titled
// <rect>, in the matrix's (BlockerProc, WaiterProc) order.
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
	const cell, label = 34.0, 120.0
	w := label + cell*float64(n) + 8
	h := label + cell*float64(n) + 8
	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" role=\"img\" aria-label=\"interference heatmap\">\n", w, h)
	b.WriteString(heatmapGrid)
	fmt.Fprintf(b, "<rect x=\"119\" y=\"119\" width=\"%.0f\" height=\"%.0f\" fill=\"url(#rda-grid)\"/>\n",
		cell*float64(n), cell*float64(n))
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
	for _, c := range rpt.Matrix {
		if c.Blamed == 0 {
			continue
		}
		bi, wi := idx[c.BlockerProc], idx[c.WaiterProc]
		frac := 0.0
		if max > 0 {
			frac = float64(c.Blamed) / float64(max)
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
		buf = appendFixed(buf, frac, 3)
		buf = append(buf, ")\" stroke=\"#ddd\"><title>"...)
		buf = append(buf, names[bi]...)
		buf = append(buf, " → "...)
		buf = append(buf, names[wi]...)
		buf = append(buf, ": "...)
		buf = appendSecs(buf, c.Blamed)
		buf = append(buf, "</title></rect>\n"...)
		b.Write(buf)
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
	b.WriteString("<table>\n<tr><th>period</th><th>rep</th><th>outcome</th><th>wait</th><th>blamed</th><th>unattributed</th><th>top blocker</th></tr>\n")
	for _, i := range longestWaits(rpt.Periods, k) {
		p := &rpt.Periods[i]
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

// longestWaits returns the indices of the k longest waits in ps, longest
// first and equal waits in their order in ps: the first k periods of a
// stable sort by Wait, descending, without copying or sorting ps.
func longestWaits(ps []PeriodBlame, k int) []int {
	top := make([]int, 0, k+1)
	for i := range ps {
		j := len(top)
		for j > 0 && ps[top[j-1]].Wait < ps[i].Wait {
			j--
		}
		if j < k {
			top = slices.Insert(top, j, i)
			if len(top) > k {
				top = top[:k]
			}
		}
	}
	return top
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
	var pts []byte // "x,y" pairs in %.1f, space-separated
	for wi := range slo.Config.Windows {
		for _, rep := range repList {
			pts = pts[:0]
			for _, s := range slo.Samples {
				if s.Rep != rep || wi >= len(s.Burn) {
					continue
				}
				if len(pts) > 0 {
					pts = append(pts, ' ')
				}
				pts = append(appendFixed(pts, x(s.At), 1), ',')
				pts = appendFixed(pts, y(s.Burn[wi]), 1)
			}
			if len(pts) > 0 {
				fmt.Fprintf(b, "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-opacity=\"0.8\"/>\n",
					pts, colors[wi%len(colors)])
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

// payloadChunk is the size at which writePayload hands its buffer to the
// bufio.Writer.
const payloadChunk = 4 << 10

// writePayload streams the JSON payload through b in chunks: the bytes
// json.Marshal gives {"meta": meta, "blame": rpt, "slo": slo}, with
// struct fields in declaration order under their tags, nil slices as
// null, "slo" and a period's empty Shares omitted and strings
// HTML-escaped.
func writePayload(b *bufio.Writer, meta ReportMeta, rpt *Report, slo *SLOResult) {
	buf := make([]byte, 0, 2*payloadChunk)
	buf = trace.AppendJSONString(append(buf, `{"meta":{"workload":`...), meta.Workload)
	buf = trace.AppendJSONString(append(buf, `,"policy":`...), meta.Policy)
	buf = writeArray(b, append(buf, `,"procs":`...), meta.Procs, func(dst []byte, s *string) []byte {
		return trace.AppendJSONString(dst, *s)
	})
	buf = writeArray(b, append(buf, `},"blame":{"periods":`...), rpt.Periods, appendPeriodJSON)
	buf = writeArray(b, append(buf, `,"matrix":`...), rpt.Matrix, func(dst []byte, c *MatrixCell) []byte {
		dst = appendKeyInt(dst, `{"blocker_proc":`, int64(c.BlockerProc))
		dst = appendKeyInt(dst, `,"waiter_proc":`, int64(c.WaiterProc))
		return append(appendKeyInt(dst, `,"blamed_ps":`, int64(c.Blamed)), '}')
	})
	buf = appendKeyInt(buf, `,"path":{"run_ps":`, int64(rpt.Path.Run))
	buf = appendKeyInt(buf, `,"wait_blamed_ps":`, int64(rpt.Path.WaitBlamed))
	buf = appendKeyInt(buf, `,"wait_unattributed_ps":`, int64(rpt.Path.WaitUnattributed))
	buf = appendKeyInt(buf, `,"idle_ps":`, int64(rpt.Path.Idle))
	buf = appendKeyInt(buf, `,"makespan_ps":`, int64(rpt.Path.Makespan))
	buf = strconv.AppendUint(append(buf, `},"denies":`...), rpt.Denies, 10)
	buf = appendKeyInt(buf, `,"total_wait_ps":`, int64(rpt.TotalWait))
	buf = appendKeyInt(buf, `,"total_blamed_ps":`, int64(rpt.TotalBlamed))
	buf = appendKeyInt(buf, `,"total_unattributed_ps":`, int64(rpt.TotalUnattributed))
	buf = append(buf, '}')
	if slo != nil {
		buf = writeSLOJSON(b, append(buf, `,"slo":`...), slo)
	}
	b.Write(append(buf, '}'))
}

// writeArray appends xs as a JSON array of elem's encodings, null when xs
// is nil, and writes buf to b whenever it reaches payloadChunk (never
// when b is nil).
func writeArray[T any](b *bufio.Writer, buf []byte, xs []T, elem func([]byte, *T) []byte) []byte {
	if xs == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for i := range xs {
		if i > 0 {
			buf = append(buf, ',')
		}
		if buf = elem(buf, &xs[i]); b != nil && len(buf) >= payloadChunk {
			b.Write(buf)
			buf = buf[:0]
		}
	}
	return append(buf, ']')
}

// appendKeyInt appends key, then v in decimal.
func appendKeyInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendPeriodJSON appends one timeline record as json.Marshal does.
func appendPeriodJSON(dst []byte, p *PeriodBlame) []byte {
	dst = appendKeyInt(dst, `{"rep":`, int64(p.Rep))
	dst = strconv.AppendUint(append(dst, `,"id":`...), uint64(p.ID), 10)
	dst = appendKeyInt(dst, `,"proc":`, int64(p.Proc))
	dst = appendKeyInt(dst, `,"phase":`, int64(p.Phase))
	dst = appendKeyInt(dst, `,"deny_at_ps":`, int64(p.DenyAt))
	dst = appendKeyInt(dst, `,"closed_at_ps":`, int64(p.ClosedAt))
	dst = trace.AppendJSONString(append(dst, `,"outcome":`...), p.Outcome)
	dst = appendKeyInt(dst, `,"wait_ps":`, int64(p.Wait))
	if len(p.Shares) > 0 {
		dst = writeArray(nil, append(dst, `,"shares":`...), p.Shares, func(dst []byte, s *Share) []byte {
			dst = strconv.AppendUint(append(dst, `{"blocker_id":`...), uint64(s.BlockerID), 10)
			dst = appendKeyInt(dst, `,"blocker_proc":`, int64(s.BlockerProc))
			dst = appendKeyInt(dst, `,"demand_bytes":`, int64(s.Demand))
			return append(appendKeyInt(dst, `,"blamed_ps":`, int64(s.Blamed)), '}')
		})
	}
	return append(appendKeyInt(dst, `,"unattributed_ps":`, int64(p.Unattributed)), '}')
}

// sloError returns the error json.Marshal gives r, nil when it gives
// none. The SLO floats are the payload's only values encoding/json
// refuses, and Marshal reports the first NaN or ±Inf in the order it
// visits them: Target, AlertBurn, MaxBurn, then each sample's Burn.
func sloError(r *SLOResult) error {
	first := func(fs ...float64) error {
		for _, f := range fs {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				_, err := trace.AppendJSONFloat(nil, f)
				return err
			}
		}
		return nil
	}
	err := first(r.Config.Target, r.Config.AlertBurn)
	if err == nil {
		err = first(r.MaxBurn...)
	}
	for i := 0; err == nil && i < len(r.Samples); i++ {
		err = first(r.Samples[i].Burn...)
	}
	return err
}

// writeSLOJSON appends the SLO result as json.Marshal does, through
// writeArray's chunks. sloError has found every float finite.
func writeSLOJSON(b *bufio.Writer, buf []byte, r *SLOResult) []byte {
	buf = appendKeyInt(buf, `{"config":{"Objective":`, int64(r.Config.Objective))
	buf, _ = trace.AppendJSONFloat(append(buf, `,"Target":`...), r.Config.Target)
	buf = writeArray(b, append(buf, `,"Windows":`...), r.Config.Windows, func(dst []byte, w *sim.Duration) []byte {
		return strconv.AppendInt(dst, int64(*w), 10)
	})
	buf, _ = trace.AppendJSONFloat(append(buf, `,"AlertBurn":`...), r.Config.AlertBurn)
	buf = strconv.AppendUint(append(buf, `},"admissions":`...), r.Admissions, 10)
	buf = strconv.AppendUint(append(buf, `,"breaches":`...), r.Breaches, 10)
	buf = strconv.AppendUint(append(buf, `,"alerts":`...), r.Alerts, 10)
	buf = writeArray(b, append(buf, `,"max_burn":`...), r.MaxBurn, appendFloatJSON)
	buf = writeArray(b, append(buf, `,"samples":`...), r.Samples, func(dst []byte, s *BurnSample) []byte {
		dst = appendKeyInt(dst, `{"rep":`, int64(s.Rep))
		dst = appendKeyInt(dst, `,"at_ps":`, int64(s.At))
		return append(writeArray(nil, append(dst, `,"burn":`...), s.Burn, appendFloatJSON), '}')
	})
	return append(buf, '}')
}

// appendFloatJSON appends a float sloError has found finite.
func appendFloatJSON(dst []byte, f *float64) []byte {
	dst, _ = trace.AppendJSONFloat(dst, *f)
	return dst
}
