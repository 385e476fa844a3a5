package main

import "testing"

// fakeClock returns a tracer whose clock reads the given times in turn.
func fakeClock(times ...int64) *tracer {
	i := 0
	return &tracer{clock: func() int64 {
		t := times[i]
		i++
		return t
	}}
}

func TestSpanSelfTimeWithNextInsideDeliver(t *testing.T) {
	// Deliver [0,100] resumes a core whose Next runs [10,40]; then a
	// top-level Next runs [100,120].
	tr := fakeClock(0, 10, 40, 100, 100, 120)
	tr.begin(spanDeliver)
	tr.begin(spanNext)
	tr.end()
	tr.end()
	tr.begin(spanNext)
	tr.end()

	if got := tr.calls; got[spanNext] != 2 || got[spanDeliver] != 1 {
		t.Errorf("calls = %v, want 2 Next and 1 Deliver", got)
	}
	if got := tr.self[spanDeliver]; got != 70 {
		t.Errorf("Deliver self = %d, want 70 (100 minus the nested Next's 30)", got)
	}
	if got := tr.self[spanNext]; got != 50 {
		t.Errorf("Next self = %d, want 50", got)
	}
	if tr.top != 120 {
		t.Errorf("top-level span time = %d, want 120 (the nested Next counted once)", tr.top)
	}
	if len(tr.stack) != 0 {
		t.Errorf("span stack not empty: %v", tr.stack)
	}
}

func TestSpanSampling(t *testing.T) {
	var now int64
	tr := &tracer{clock: func() int64 { now++; return now }}
	// One lone span, then pairs that finish Next before its Deliver: the
	// sampleEvery'th span to finish is a nested Next.
	tr.begin(spanDeliver)
	tr.end()
	for i := 0; i < sampleEvery/2; i++ {
		tr.begin(spanDeliver)
		tr.begin(spanNext)
		tr.end()
		tr.end()
	}
	if len(tr.sampled) != 1 {
		t.Fatalf("sampled %d of %d spans, want 1", len(tr.sampled), tr.finished)
	}
	s := tr.sampled[0]
	if s.kind != spanNext || s.parent != int(spanDeliver) || s.end <= s.start {
		t.Errorf("sampled span = %+v, want a Next inside a Deliver", s)
	}
}
