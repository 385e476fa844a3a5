package tilesim

// testdata/golden/results.json pins the results of the configurations
// pinnedConfigs lists (DESIGN.md §9): one row per output, a
// simulation's sweep.Digest with its exec cycles, coverage and VL
// fraction, or the SHA-256 of a series CSV, a Perfetto trace or a
// figure CSV. TestPinnedResults recomputes every row; a row may move
// only together with a cmp.SimVersion bump, and the table's diff is
// then the review.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/fault"
	"tilesim/internal/figures"
	"tilesim/internal/obs"
	"tilesim/internal/stats"
	"tilesim/internal/sweep"
	"tilesim/internal/workload"
)

// pinnedPath is the table of pinned results.
const pinnedPath = "testdata/golden/results.json"

// pinnedTable mirrors results.json.
type pinnedTable struct {
	SimVersion string               `json:"sim_version"`
	Rows       map[string]pinnedRow `json:"rows"`
}

// pinnedRow is one row of the table, in bench/pinned.json's field
// names: a simulation's digest and summary, or an output's SHA-256.
type pinnedRow struct {
	Digest     string  `json:"digest"`
	ExecCycles uint64  `json:"exec_cycles"`
	Coverage   float64 `json:"coverage"`
	VLFraction float64 `json:"vl_fraction"`
	SHA256     string  `json:"sha256"`
}

// String renders r as the one-line object results.json holds.
func (r pinnedRow) String() string {
	if r.SHA256 != "" {
		return fmt.Sprintf(`{"sha256": %q}`, r.SHA256)
	}
	return fmt.Sprintf(`{"digest": %q, "exec_cycles": %d, "coverage": %s, "vl_fraction": %s}`,
		r.Digest, r.ExecCycles, strconv.FormatFloat(r.Coverage, 'g', -1, 64),
		strconv.FormatFloat(r.VLFraction, 'g', -1, 64))
}

// pinnedConfig is one row's configuration and the output it pins.
type pinnedConfig struct {
	name string
	cfg  cmp.RunConfig
	// write, when set, writes the output whose SHA-256 the row pins;
	// without it the row pins the run's digest and summary.
	write func(w io.Writer, cfg cmp.RunConfig) error
	// slope names the row's TestAllocSlope subtest; "" leaves it out.
	slope string
}

// row recomputes c's row.
func (c pinnedConfig) row() (pinnedRow, error) {
	if c.write != nil {
		h := sha256.New()
		if err := c.write(h, c.cfg); err != nil {
			return pinnedRow{}, err
		}
		return pinnedRow{SHA256: hex.EncodeToString(h.Sum(nil))}, nil
	}
	r, err := cmp.Run(c.cfg)
	if err != nil {
		return pinnedRow{}, err
	}
	return pinnedRow{Digest: sweep.Digest(r), ExecCycles: r.ExecCycles, Coverage: r.Coverage, VLFraction: r.VLFraction}, nil
}

// pinnedConfigs lists the table's rows in file order. Each simulation
// is the tilesim command line its comment gives, on top of
//
//	tilesim -app FFT -het -scheme dbrc
//
// (a 4-entry DBRC with 2 low-order bytes, seed 1): FFT at 64 tiles on
// every topology, fault-free, at BER 1e-5 with a 4x noisier VL plane,
// and with router stalls plus a VL-plane outage; FFT at 1024 tiles;
// the 13 applications at 16 tiles, which cover the generator's paths
// FFT alone does not (long compute gaps in Water-nsq and LU, none in
// MP3D and Unstructured, each address pattern); the schemes and link
// layouts tilesim has no flag for; the epoch series and traces; the
// quick figure CSVs; and bench/'s four workloads, whose rows
// bench/pinned.json must repeat.
func pinnedConfigs() []pinnedConfig {
	dbrc := compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}
	fft := func(refs, warmup int) cmp.RunConfig {
		return cmp.RunConfig{App: "FFT", RefsPerCore: refs, WarmupRefs: warmup, Seed: 1,
			Compression: dbrc, Heterogeneous: true}
	}
	ber := fault.Config{BER: 1e-5, VLBERScale: 4}
	var rows []pinnedConfig
	add := func(name string, cfg cmp.RunConfig, slope string) {
		rows = append(rows, pinnedConfig{name: name, cfg: cfg, slope: slope})
	}

	// -refs 500 -warmup 250 -topo T -tiles 64, then
	// -fault-ber 1e-5 -fault-vl-ber-scale 4, or -fault-stall-prob 0.01
	// -fault-outage-plane VL -fault-outage-start 2000 -fault-outage-cycles 3000.
	for _, topo := range cmp.TopologyNames {
		for _, f := range []struct {
			name string
			f    fault.Config
		}{
			{"", fault.Config{}},
			{"-ber", ber},
			{"-stall-outage", fault.Config{StallProb: 0.01, OutagePlane: "VL", OutageStart: 2000, OutageCycles: 3000}},
		} {
			cfg := fft(500, 250)
			cfg.Topology, cfg.Tiles, cfg.Faults = topo, 64, f.f
			add(topo+"64"+f.name, cfg, topo+"64"+f.name)
		}
	}
	// -refs 40 -warmup 10 -tiles 1024 -topo torus (bench/'s
	// fft-torus1024), at BER 1e-5, and -topo slim: the widest port
	// table, 62 output ports per router.
	torus1024 := fft(40, 10)
	torus1024.Topology, torus1024.Tiles = "torus", 1024
	add("fft-torus1024", torus1024, "")
	torus1024ber := torus1024
	torus1024ber.Faults = ber
	add("torus1024-ber", torus1024ber, "")
	slim1024 := torus1024
	slim1024.Topology = "slim"
	add("slim1024", slim1024, "")

	// -app A -refs 2000 -warmup 500 for every application, and FFT at
	// BER 1e-5 too: app-FFT and app-FFT-ber are the 4x4 goldens' two
	// configurations.
	for _, app := range workload.AppNames() {
		cfg := fft(2000, 500)
		cfg.App = app
		add("app-"+app, cfg, app)
	}
	fftBER := fft(2000, 500)
	fftBER.Faults = ber
	add("app-FFT-ber", fftBER, "")
	// What only cmd/figures reaches: 2-byte Stride, perfect
	// compression, L+PW and VL+B+PW with Reply Partitioning.
	for _, v := range []struct {
		name string
		set  func(*cmp.RunConfig)
	}{
		{"FFT-stride", func(c *cmp.RunConfig) { c.Compression = compress.Spec{Kind: "stride", LowOrderBytes: 2} }},
		{"FFT-perfect", func(c *cmp.RunConfig) { c.Compression = compress.Spec{Kind: "perfect", LowOrderBytes: 2} }},
		{"FFT-lpw-rp", func(c *cmp.RunConfig) {
			c.Compression = compress.Spec{Kind: "none"}
			c.Wiring, c.ReplyPartitioning = "lpw", true
		}},
		{"FFT-vlbpw-rp", func(c *cmp.RunConfig) { c.Wiring, c.ReplyPartitioning = "vlbpw", true }},
	} {
		cfg := fft(2000, 500)
		v.set(&cfg)
		add(v.name, cfg, v.name)
	}

	// -series-out F.csv: at 16 tiles with -series-interval 512, the
	// 64-tile torus at BER 1e-5 with 4096, the 1024-tile torus with
	// 100000.
	series := func(name string, cfg cmp.RunConfig, interval int, slope string) {
		cfg.SeriesInterval = interval
		rows = append(rows, pinnedConfig{name: name, cfg: cfg, write: writeSeriesCSV, slope: slope})
	}
	torus64ber := fft(500, 250)
	torus64ber.Topology, torus64ber.Tiles, torus64ber.Faults = "torus", 64, ber
	series("series-fft16", fft(2000, 500), 512, "FFT-series512")
	series("series-torus64-ber", torus64ber, 4096, "")
	series("series-torus1024", torus1024, 100000, "")
	// -trace-out F -trace-sample 16: at 16 tiles with the series sink
	// on too, and the 64-tile torus at BER 1e-5, whose trace holds the
	// CRC-NACK retries.
	fft16series := fft(2000, 500)
	fft16series.SeriesInterval = 512
	rows = append(rows,
		pinnedConfig{name: "trace-fft16", cfg: fft16series, write: writeTrace},
		pinnedConfig{name: "trace-torus64-ber", cfg: torus64ber, write: writeTrace},
	)

	// figures -quick -csv, -quick -ablation -csv, and -scale -quick
	// -scale-tiles 16,64 -scale-topos mesh,torus -csv.
	rows = append(rows,
		pinnedConfig{name: "figures-quick", write: figureCSV(func(r *sweep.Runner, s figures.Scale) ([]*stats.Table, error) {
			_, fig2, err := figures.Figure2(r, s)
			if err != nil {
				return nil, err
			}
			_, fig5, err := figures.Figure5(r, s)
			if err != nil {
				return nil, err
			}
			res, err := figures.Figure67(r, s)
			if err != nil {
				return nil, err
			}
			return []*stats.Table{fig2, fig5, figures.Figure6TopTable(res), figures.Figure6BottomTable(res), figures.Figure7Table(res)}, nil
		})},
		pinnedConfig{name: "figures-ablation", write: figureCSV(func(r *sweep.Runner, s figures.Scale) ([]*stats.Table, error) {
			_, wiring, err := figures.AblationWiring(r, s, []string{"MP3D", "Unstructured", "FFT", "Water-nsq"})
			if err != nil {
				return nil, err
			}
			_, size, err := figures.AblationDBRCSize(r, s, "FFT")
			if err != nil {
				return nil, err
			}
			_, sens, err := figures.AblationSensitivity(r, s, "MP3D")
			if err != nil {
				return nil, err
			}
			return []*stats.Table{wiring, size, sens}, nil
		})},
		pinnedConfig{name: "figures-scale", write: figureCSV(func(r *sweep.Runner, s figures.Scale) ([]*stats.Table, error) {
			_, t, err := figures.ScaleStudy(r, s, "FFT", []int{16, 64}, []string{"mesh", "torus"})
			return []*stats.Table{t}, err
		})},
	)

	// bench/workloads.go's other three workloads at seed 1.
	add("mp3d-vlb", cmp.RunConfig{App: "MP3D", RefsPerCore: 10000, WarmupRefs: 1000, Seed: 1,
		Compression: dbrc, Heterogeneous: true}, "")
	add("water-base", cmp.RunConfig{App: "Water-nsq", RefsPerCore: 80000, WarmupRefs: 8000, Seed: 1,
		Compression: compress.Spec{Kind: "none"}}, "")
	add("radix-stride-ber", cmp.RunConfig{App: "Radix", RefsPerCore: 8000, WarmupRefs: 800, Seed: 1,
		Compression: compress.Spec{Kind: "stride", LowOrderBytes: 2}, Heterogeneous: true, Faults: ber}, "")
	return rows
}

// writeSeriesCSV writes cfg's epoch series as `tilesim -series-out`
// writes a .csv file.
func writeSeriesCSV(w io.Writer, cfg cmp.RunConfig) error {
	r, err := cmp.Run(cfg)
	if err != nil {
		return err
	}
	return r.Series.WriteCSV(w)
}

// writeTrace writes cfg's Perfetto trace as `tilesim -trace-out
// -trace-sample 16` does.
func writeTrace(w io.Writer, cfg cmp.RunConfig) error {
	sys, err := cmp.NewSystem(cfg)
	if err != nil {
		return err
	}
	tr := obs.NewTracer(w, 16)
	sys.SetTracer(tr)
	if _, err := sys.Run(); err != nil {
		return err
	}
	return tr.Close()
}

// figureCSV returns a row's write for `figures -quick -csv`: the CSV
// of each table tables returns, at the quick scale, through one
// in-process cache as cmd/figures keeps.
func figureCSV(tables func(*sweep.Runner, figures.Scale) ([]*stats.Table, error)) func(io.Writer, cmp.RunConfig) error {
	return func(w io.Writer, _ cmp.RunConfig) error {
		ts, err := tables(&sweep.Runner{Cache: sweep.NewMemCache()}, figures.Quick())
		if err != nil {
			return err
		}
		for _, t := range ts {
			if _, err := io.WriteString(w, t.CSV()); err != nil {
				return err
			}
		}
		return nil
	}
}

// formatPinned renders the table of rows as results.json holds it,
// under the code's cmp.SimVersion.
func formatPinned(cfgs []pinnedConfig, rows []pinnedRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"sim_version\": %q,\n  \"rows\": {\n", cmp.SimVersion)
	for i, c := range cfgs {
		sep := ","
		if i == len(cfgs)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %q: %s%s\n", c.name, rows[i], sep)
	}
	b.WriteString("  }\n}\n")
	return b.String()
}

// TestPinnedResults recomputes every row of results.json in parallel
// subtests, each named after its row, and requires bench/pinned.json to
// repeat the rows of bench/'s workloads. A moved row fails while
// cmp.SimVersion is unchanged. A table generated under another
// SimVersion, or with other rows, fails until it is regenerated: the
// test then logs the regenerated table, to be pasted over the file.
// Skipped under -race and -short, like the alloc gates.
func TestPinnedResults(t *testing.T) {
	if raceEnabled {
		t.Skip("recomputes every pinned result; the race job runs the golden tests instead")
	}
	if testing.Short() {
		t.Skip("recomputes every pinned result")
	}
	raw, err := os.ReadFile(pinnedPath)
	if err != nil {
		t.Fatal(err)
	}
	var table pinnedTable
	if err := json.Unmarshal(raw, &table); err != nil {
		t.Fatalf("parse %s: %v", pinnedPath, err)
	}
	raw, err = os.ReadFile("bench/pinned.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench map[string]pinnedRow
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("parse bench/pinned.json: %v", err)
	}

	cfgs := pinnedConfigs()
	rows := make([]pinnedRow, len(cfgs))
	t.Run("rows", func(t *testing.T) {
		for i, c := range cfgs {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				got, err := c.row()
				if err != nil {
					t.Fatal(err)
				}
				rows[i] = got
				if p, ok := bench[c.name]; ok && p != got {
					t.Errorf("bench/pinned.json holds %v, the run gives %v: re-pin it", p, got)
				}
				if want, ok := table.Rows[c.name]; !ok {
					t.Errorf("no row in %s; the run gives %v", pinnedPath, got)
				} else if want != got {
					t.Errorf("moved:\n  was %v\n  now %v", want, got)
				}
			})
		}
	})
	for name := range bench {
		if !slices.ContainsFunc(cfgs, func(c pinnedConfig) bool { return c.name == name }) {
			t.Errorf("bench/pinned.json's %s is not a pinned configuration", name)
		}
	}
	moved, missing := 0, 0
	for i, c := range cfgs {
		switch want, ok := table.Rows[c.name]; {
		case !ok:
			missing++
		case want != rows[i]:
			moved++
		}
	}
	switch {
	case slices.Contains(rows, pinnedRow{}):
		t.Error("some rows could not be recomputed, so no regenerated table")
	case table.SimVersion == cmp.SimVersion && moved > 0:
		t.Errorf("%d rows moved under unchanged cmp.SimVersion %s: a deliberate change bumps it, "+
			"and this test then logs the table to paste over %s", moved, cmp.SimVersion, pinnedPath)
	case table.SimVersion != cmp.SimVersion || missing > 0 || len(table.Rows) != len(cfgs):
		t.Errorf("%s holds %d rows under %s, the code has %d under %s (%d moved); regenerated table:\n%s",
			pinnedPath, len(table.Rows), table.SimVersion, len(cfgs), cmp.SimVersion, moved, formatPinned(cfgs, rows))
	}
}
