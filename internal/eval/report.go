package eval

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// PlotCurves renders anytime accuracy curves as an ASCII chart, the
// terminal analogue of the paper's figures: x-axis nodes read, y-axis
// accuracy, one glyph per curve.
func PlotCurves(w io.Writer, title string, curves []*Curve) error {
	if len(curves) == 0 {
		return fmt.Errorf("eval: no curves to plot")
	}
	const height = 20
	width := len(curves[0].Acc)
	for _, c := range curves {
		if len(c.Acc) != width {
			return fmt.Errorf("eval: curve %s has %d points, want %d", c.Name, len(c.Acc), width)
		}
	}
	// Plot at most ~100 columns, subsampling longer curves.
	cols := width
	step := 1
	for cols > 110 {
		step *= 2
		cols = (width + step - 1) / step
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range curves {
		for _, a := range c.Acc {
			lo = math.Min(lo, a)
			hi = math.Max(hi, a)
		}
	}
	if hi-lo < 1e-9 {
		hi = lo + 1e-9
	}
	pad := 0.05 * (hi - lo)
	lo -= pad
	hi += pad
	glyphs := []byte{'E', 'H', 'G', 'I', 'Z', 'S', 'V', 'M', '*', '+'}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	for ci, c := range curves {
		g := glyphs[ci%len(glyphs)]
		for col := 0; col < cols; col++ {
			t := col * step
			if t >= width {
				t = width - 1
			}
			row := int((hi - c.Acc[t]) / (hi - lo) * float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = g
		}
	}
	fmt.Fprintf(w, "%s\n", title)
	for r := 0; r < height; r++ {
		y := hi - (hi-lo)*float64(r)/float64(height-1)
		fmt.Fprintf(w, "%6.3f |%s\n", y, string(grid[r]))
	}
	fmt.Fprintf(w, "       +%s\n", strings.Repeat("-", cols))
	fmt.Fprintf(w, "        0%snodes=%d\n", strings.Repeat(" ", max(1, cols-12)), width-1)
	legend := make([]string, len(curves))
	for i, c := range curves {
		legend[i] = fmt.Sprintf("%c=%s(final %.3f, mean %.3f)", glyphs[i%len(glyphs)], c.Name, c.Final(), c.Mean())
	}
	fmt.Fprintf(w, "  %s\n", strings.Join(legend, "  "))
	return nil
}

// CurveTable prints accuracy at selected budgets for each curve, the
// numeric companion to the plot.
func CurveTable(w io.Writer, curves []*Curve, budgets []int) {
	fmt.Fprintf(w, "%-12s", "loader")
	for _, b := range budgets {
		fmt.Fprintf(w, "  acc@%-4d", b)
	}
	fmt.Fprintf(w, "  %-8s  %s\n", "mean", "build")
	for _, c := range curves {
		fmt.Fprintf(w, "%-12s", c.Name)
		for _, b := range budgets {
			fmt.Fprintf(w, "  %-8.4f", c.At(b))
		}
		fmt.Fprintf(w, "  %-8.4f  %s\n", c.Mean(), c.BuildTime.Round(1e6))
	}
}

// QualityTable prints, for each curve at selected budgets, the accuracy
// beside the log-loss, Brier score and calibration error of the
// posteriors behind it.
func QualityTable(w io.Writer, curves []*Curve, budgets []int) {
	fmt.Fprintf(w, "%-12s  %5s  %7s  %7s  %7s  %7s\n", "loader", "nodes", "acc", "logloss", "brier", "ece")
	for _, c := range curves {
		for _, b := range budgets {
			t := min(max(b, 0), len(c.Acc)-1)
			fmt.Fprintf(w, "%-12s  %5d  %7.4f  %7.4f  %7.4f  %7.4f\n", c.Name, t, c.Acc[t], c.LogLoss[t], c.Brier[t], c.ECE[t])
		}
	}
}
