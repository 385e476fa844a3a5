package figures

import (
	"fmt"

	"tilesim/internal/compress"
	"tilesim/internal/stats"
	"tilesim/internal/sweep"
)

// Figure67 runs the whole Figure 6 + Figure 7 sweep: per application,
// one baseline run plus every bar and line configuration, submitted as
// a single batch so the grid parallelizes across applications too. A
// line's label carries the " [line]" suffix of its table column.
func Figure67(runner *sweep.Runner, scale Scale) ([]Cell, error) {
	var groups []group
	for _, app := range Apps() {
		g := group{name: app}
		g.add(none.Label(), scale.job(app, none))
		for _, spec := range append(compress.Figure6Specs(), compress.PerfectSpecs()...) {
			cfg := scale.job(app, spec)
			cfg.Heterogeneous = true
			label := spec.Label()
			if spec.Kind == "perfect" {
				label += " [line]"
			}
			g.add(label, cfg)
		}
		groups = append(groups, g)
	}
	return run(runner, "figure 6/7", groups)
}

// Metric selects one normalized metric of a cell.
type Metric func(Cell) float64

// tableOf renders one metric of a sweep as application rows x
// configuration columns, leaving out each group's baseline and
// appending a cross-application average row.
func tableOf(cells []Cell, pick Metric) *stats.Table {
	groups := byGroup(cells)
	if len(groups) == 0 {
		return stats.NewTable("Application")
	}
	cols := []string{"Application"}
	for _, c := range groups[0][1:] {
		cols = append(cols, c.Label)
	}
	t := stats.NewTable(cols...)
	sums := make([]float64, len(cols)-1)
	for _, g := range groups {
		row := []string{g[0].Group}
		for i, c := range g[1:] {
			row = append(row, fmt.Sprintf("%.3f", pick(c)))
			sums[i] += pick(c)
		}
		t.AddRow(row...)
	}
	avg := []string{"AVERAGE"}
	for _, s := range sums {
		avg = append(avg, fmt.Sprintf("%.3f", s/float64(len(groups))))
	}
	t.AddRow(avg...)
	return t
}

// Figure6TopTable renders normalized execution time.
func Figure6TopTable(cells []Cell) *stats.Table { return tableOf(cells, NormTime) }

// Figure6BottomTable renders normalized link ED^2P.
func Figure6BottomTable(cells []Cell) *stats.Table { return tableOf(cells, NormLinkED2P) }

// Figure7Table renders normalized full-CMP ED^2P.
func Figure7Table(cells []Cell) *stats.Table { return tableOf(cells, NormChipED2P) }

// Average returns the mean of a metric over the cells labeled config:
// over Figure67's cells, the cross-application mean.
func Average(cells []Cell, config string, pick Metric) float64 {
	var sum float64
	var n int
	for _, c := range cells {
		if c.Label == config {
			sum += pick(c)
			n++
		}
	}
	return stats.Ratio(sum, float64(n))
}

// NormTime is the execution-time metric selector for Average.
func NormTime(c Cell) float64 { return c.NormTime }

// NormLinkED2P is the link-ED^2P metric selector for Average.
func NormLinkED2P(c Cell) float64 { return c.NormLinkED2P }

// NormChipED2P is the full-CMP-ED^2P metric selector for Average.
func NormChipED2P(c Cell) float64 { return c.NormChipED2P }
