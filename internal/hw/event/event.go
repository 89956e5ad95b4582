// Package event records the busy intervals of the MDGRAPE-4A machine
// model's units and renders them as the paper's Fig. 9/10-style time
// charts. The machine model (internal/hw/machine) computes each interval
// from its barrier-phased step schedule; this package only collects and
// draws them.
//
// Time is in nanoseconds (float64), matching the 10 ns measurement
// resolution the paper reports for CGP status transitions.
package event

import (
	"fmt"
	"strings"
)

// Interval is one busy span of one module on one node.
type Interval struct {
	Module string
	Node   int // −1 for machine-global modules (e.g. the root FPGA)
	Start  float64
	End    float64
}

// Chart collects busy intervals for rendering time charts.
type Chart struct {
	Intervals []Interval
}

// Add records a busy interval.
func (c *Chart) Add(module string, node int, start, end float64) {
	c.Intervals = append(c.Intervals, Interval{Module: module, Node: node, Start: start, End: end})
}

// Modules returns the distinct module names in first-appearance order.
func (c *Chart) Modules() []string {
	seen := map[string]bool{}
	var out []string
	for _, iv := range c.Intervals {
		if !seen[iv.Module] {
			seen[iv.Module] = true
			out = append(out, iv.Module)
		}
	}
	return out
}

// Render draws an ASCII Gantt chart (one row per module, aggregated over
// nodes) spanning [0, end] with the given number of columns — the textual
// analogue of the paper's Fig. 9.
func (c *Chart) Render(width int) string {
	_, end := c.Bounds()
	if end <= 0 || width < 10 {
		return ""
	}
	var b strings.Builder
	mods := c.Modules()
	longest := 0
	for _, m := range mods {
		if len(m) > longest {
			longest = len(m)
		}
	}
	for _, m := range mods {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, iv := range c.Intervals {
			if iv.Module != m {
				continue
			}
			lo := int(iv.Start / end * float64(width-1))
			hi := int(iv.End / end * float64(width-1))
			for i := lo; i <= hi && i < width; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", longest, m, string(row))
	}
	fmt.Fprintf(&b, "%-*s  0%*s\n", longest, "", width-1, fmt.Sprintf("%.1f us", end/1000))
	return b.String()
}

// Bounds returns the earliest start and latest end over all intervals.
func (c *Chart) Bounds() (start, end float64) {
	for i, iv := range c.Intervals {
		if i == 0 || iv.Start < start {
			start = iv.Start
		}
		if iv.End > end {
			end = iv.End
		}
	}
	return start, end
}
