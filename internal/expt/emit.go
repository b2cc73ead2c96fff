package expt

import (
	"fmt"
	"io"
	"strings"
)

// WriteASCII renders a figure as a fixed-width table: one row per
// granularity, one column per series (mean over the batch).
func WriteASCII(w io.Writer, f *Figure) error {
	if f == nil || len(f.Series) == 0 {
		return fmt.Errorf("expt: empty figure")
	}
	if _, err := fmt.Fprintf(w, "# %s\n", f.Title); err != nil {
		return err
	}
	header := make([]string, 0, len(f.Series)+1)
	header = append(header, f.XLabel)
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
		if widths[i] < 10 {
			widths[i] = 10
		}
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, "  "))
		return err
	}
	if err := writeRow(header); err != nil {
		return err
	}
	xs := f.Series[0].Xs
	for i, x := range xs {
		cells := []string{fmt.Sprintf("%.2f", x)}
		for _, s := range f.Series {
			if i < len(s.Points) {
				cells = append(cells, fmt.Sprintf("%.3f", s.Points[i].Mean()))
			} else {
				cells = append(cells, "-")
			}
		}
		if err := writeRow(cells); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders a figure as CSV with a header row; suitable for plotting
// with any external tool.
func WriteCSV(w io.Writer, f *Figure) error {
	if f == nil || len(f.Series) == 0 {
		return fmt.Errorf("expt: empty figure")
	}
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	xs := f.Series[0].Xs
	for i, x := range xs {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range f.Series {
			if i < len(s.Points) {
				row = append(row, fmt.Sprintf("%g", s.Points[i].Mean()))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable1 renders Table 1 in the paper's layout.
func WriteTable1(w io.Writer, rows []Table1Row) error {
	if _, err := fmt.Fprintf(w, "%-16s %10s %10s %10s %12s\n",
		"Number of tasks", "FTSA", "MC-FTSA", "FTBAR", "FTBAR/FTSA"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-16d %10.3f %10.3f %10.3f %12.1f\n",
			r.Tasks, r.FTSA, r.MCFTSA, r.FTBAR, r.RatioBF); err != nil {
			return err
		}
	}
	return nil
}
