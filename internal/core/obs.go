package core

import (
	"tilesim/internal/obs"
	"tilesim/internal/stats"
)

// RegisterMetrics declares the message manager's quantities in a
// registry under the "mgr." prefix (DESIGN.md §10 naming): the
// compression hit/miss pipeline, the plane-steering decision counts and
// the compression coverage. The epoch series samples the steering
// counts and the coverage per window — the per-phase compression drift
// end-of-run aggregates flatten away. The failover counter registers
// only under fault injection, keeping fault-free metric output
// byte-identical to earlier versions.
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	s := r.Sampled()
	r.Counter("mgr.compressible", m.Compressible.Value)
	s.Counter("mgr.compressed", m.Compressed.Value)
	s.Counter("mgr.vl_messages", m.VLMessages.Value)
	s.Counter("mgr.b_messages", m.BMessages.Value)
	s.Counter("mgr.pw_messages", m.PWMessages.Value)
	s.Counter("mgr.local_messages", m.LocalMsgs.Value)
	r.Counter("mgr.saved_bytes", m.SavedBytes.Value)
	if m.net.FaultsEnabled() {
		s.Counter("mgr.failover_msgs", m.FailoverMsgs.Value)
	}
	// Coverage: the fraction of compressible messages that were
	// compressed (Figure 2's metric).
	s.Ratio("mgr.coverage", m.Compressed.Value, m.Compressible.Value)
	r.Gauge("mgr.vl_fraction", func() float64 { return m.remoteShare(m.VLMessages.Value()) })
	r.Gauge("mgr.pw_fraction", func() float64 { return m.remoteShare(m.PWMessages.Value()) })
}

// remoteShare returns n messages as a fraction of the remote messages.
func (m *Manager) remoteShare(n uint64) float64 {
	return stats.Ratio(float64(n), float64(m.VLMessages.Value()+m.BMessages.Value()+m.PWMessages.Value()))
}
