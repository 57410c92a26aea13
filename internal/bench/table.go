package bench

// The one table renderer. Every table smrbench prints or writes — an
// experiment's points, a trajectory diff, the applicability matrix — is a
// Table rendered as aligned text, CSV or markdown.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Format selects a rendering of a Table.
type Format int

// The renderings.
const (
	Text Format = iota
	CSV
	Markdown
)

// Table is a titled grid of cells. The first Labels columns are row
// labels (left-aligned); the rest are numbers (right-aligned).
type Table struct {
	Title  string
	Note   string // how the numbers were obtained, under the title
	Header []string
	Labels int
	Rows   [][]string
}

// Render writes t in the given format. CSV carries no title: it is the
// machine-readable form.
func (t Table) Render(w io.Writer, f Format) {
	switch f {
	case CSV:
		fmt.Fprintln(w, strings.Join(t.Header, ","))
		for _, r := range t.Rows {
			fmt.Fprintln(w, strings.Join(r, ","))
		}
	case Markdown:
		if t.Title != "" {
			fmt.Fprintf(w, "### %s\n\n", t.Title)
		}
		if t.Note != "" {
			fmt.Fprintf(w, "%s\n\n", t.Note)
		}
		rule := make([]string, len(t.Header))
		for i := range rule {
			rule[i] = "---"
			if i >= t.Labels {
				rule[i] = "---:"
			}
		}
		fmt.Fprintf(w, "| %s |\n|%s|\n", strings.Join(t.Header, " | "), strings.Join(rule, "|"))
		for _, r := range t.Rows {
			fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
		}
	default:
		if t.Title != "" {
			fmt.Fprintln(w, t.Title)
		}
		if t.Note != "" {
			fmt.Fprintf(w, "  (%s)\n", t.Note)
		}
		lines := append([][]string{t.Header}, t.Rows...)
		width := make([]int, len(t.Header))
		for _, r := range lines {
			for i, c := range r {
				if n := len([]rune(c)); n > width[i] {
					width[i] = n
				}
			}
		}
		for _, r := range lines {
			cells := make([]string, len(r))
			for i, c := range r {
				pad := strings.Repeat(" ", width[i]-len([]rune(c)))
				if i < t.Labels {
					cells[i] = c + pad
				} else {
					cells[i] = pad + c
				}
			}
			fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(cells, "  "), " "))
		}
	}
}

// Table renders the report's points: workload, scheme, throughput (with
// its spread once there is more than one repeat) and the declared
// columns. A cell the point has no value for is "-".
func (f *BenchFile) Table(title string) Table {
	t := Table{
		Title: title,
		Note: fmt.Sprintf("repeats=%d, warmup=%d, %d ms/point, seed %d, GOMAXPROCS=%d, %s %s/%s",
			f.Repeats, f.Warmup, f.DurationMS, f.Seed, f.Environment.GOMAXPROCS,
			f.Environment.GoVersion, f.Environment.GOOS, f.Environment.GOARCH),
		Header: []string{"workload", "scheme", "ops_per_sec"},
		Labels: 2,
	}
	spread := f.Repeats > 1
	if spread {
		t.Header = append(t.Header, "std", "min", "max")
	}
	t.Header = append(t.Header, f.Columns...)
	prec := make(map[string]int, len(allColumns))
	for _, c := range allColumns {
		prec[c.Name] = c.Prec
	}
	for _, p := range f.Points {
		row := []string{p.Workload, p.Scheme, strconv.FormatFloat(p.OpsPerSec, 'f', 0, 64)}
		if spread {
			for _, v := range []float64{p.Ops.Std, p.Ops.Min, p.Ops.Max} {
				row = append(row, strconv.FormatFloat(v, 'f', 0, 64))
			}
		}
		for _, col := range f.Columns {
			cell := "-"
			if v, ok := p.Values[col]; ok {
				cell = strconv.FormatFloat(v, 'f', prec[col], 64)
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TrajectoryTable renders a per-experiment trajectory diff, one row per
// point.
func TrajectoryTable(experiment string, rows []TrajectoryPoint) Table {
	t := Table{
		Title:  "trajectory: " + experiment,
		Header: []string{"workload", "scheme", "verdict", "baseline ops/s", "current ops/s", "delta %", "noise band"},
		Labels: 3,
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload, r.Scheme, string(r.Verdict),
			fmt.Sprintf("%.0f", r.BaseOps), fmt.Sprintf("%.0f", r.CurOps),
			fmt.Sprintf("%+.1f", r.DeltaPct), fmt.Sprintf("%.0f", r.Noise),
		})
	}
	return t
}
