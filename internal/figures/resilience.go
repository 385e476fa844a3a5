package figures

import (
	"fmt"

	"tilesim/internal/fault"
	"tilesim/internal/stats"
	"tilesim/internal/sweep"
)

// ResilienceBERs is the bit-error-rate axis of the resilience sweep:
// fault-free, then decade steps up to a BER where most multi-flit
// traversals need at least one retransmission.
func ResilienceBERs() []float64 {
	return []float64{0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4}
}

// resilienceRetryLimit is deep enough that no message is dropped at
// any swept BER — the sweep measures graceful degradation, not the
// failure cliff (the retry-budget error path has its own tests).
const resilienceRetryLimit = 64

// Resilience sweeps execution time and link ED^2P against link BER on
// the paper's proposal configuration (DBRC-4/2B compression over VL+B
// wires) for one application: one group, normalized against its
// fault-free run, each cell labeled with its BER. Every injected error
// is corrected by the link-level retry protocol — the sweep quantifies
// what that correction costs as the error rate climbs.
func Resilience(runner *sweep.Runner, scale Scale, app string) ([]Cell, *stats.Table, error) {
	g := group{name: app}
	for _, ber := range ResilienceBERs() {
		cfg := scale.job(app, dbrc4)
		cfg.Heterogeneous = true
		if ber > 0 {
			cfg.Faults = fault.Config{BER: ber, RetryLimit: resilienceRetryLimit}
		}
		g.add(fmt.Sprintf("%g", ber), cfg)
	}
	cells, err := run(runner, "resilience", []group{g})
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("BER", "Norm Time", "Norm Link ED^2P", "CRC Errors", "Retries", "Retry Flits")
	for _, c := range cells {
		if c.Net.Dropped != 0 {
			return nil, nil, fmt.Errorf("resilience: %d drops at BER %s despite the %d-retry budget",
				c.Net.Dropped, c.Label, resilienceRetryLimit)
		}
		t.AddRow(c.Label,
			fmt.Sprintf("%.3f", c.NormTime),
			fmt.Sprintf("%.3f", c.NormLinkED2P),
			fmt.Sprintf("%d", c.Net.CRCErrors),
			fmt.Sprintf("%d", c.Net.Retries),
			fmt.Sprintf("%d", c.Net.RetryFlits))
	}
	return cells, t, nil
}
