package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("new kernel at cycle %d, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("new kernel has %d pending events, want 0", k.Pending())
	}
}

func TestScheduleAndRunOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(10, func() { order = append(order, 2) })
	k.Schedule(5, func() { order = append(order, 1) })
	k.Schedule(20, func() { order = append(order, 3) })
	k.Run(nil)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran in order %v, want [1 2 3]", order)
	}
	if k.Now() != 20 {
		t.Fatalf("clock at %d after run, want 20", k.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(7, func() { order = append(order, i) })
	}
	k.Run(nil)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events reordered: position %d has %d", i, v)
		}
	}
}

func TestZeroDelayRunsAfterCurrentEvent(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(1, func() {
		order = append(order, 1)
		k.Schedule(0, func() { order = append(order, 2) })
	})
	k.Schedule(1, func() { order = append(order, 3) })
	k.Run(nil)
	want := []int{1, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {})
	k.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.ScheduleAt(5, func() {})
}

func TestNilEventPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	k.Schedule(1, nil)
}

func TestRunWithStopPredicate(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 50; i++ {
		k.Schedule(Time(i), func() { count++ })
	}
	k.Run(func() bool { return count >= 10 })
	if count != 10 {
		t.Fatalf("ran %d events, want 10", count)
	}
	if k.Pending() != 40 {
		t.Fatalf("%d pending after early stop, want 40", k.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Time{3, 7, 12, 30} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(12)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want events at 3,7,12", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending %d, want 1", k.Pending())
	}
	// Advancing to a deadline with no events moves the clock.
	k.Run(nil)
	k.RunUntil(100)
	if k.Now() != 100 {
		t.Fatalf("clock %d after empty RunUntil, want 100", k.Now())
	}
}

func TestProcessedCount(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 17; i++ {
		k.Schedule(Time(i+1), func() {})
	}
	k.Run(nil)
	if k.Processed() != 17 {
		t.Fatalf("processed %d, want 17", k.Processed())
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain scheduling its successor must advance time
	// monotonically and terminate.
	k := NewKernel()
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 1000 {
			k.Schedule(1, step)
		}
	}
	k.Schedule(1, step)
	k.Run(nil)
	if depth != 1000 {
		t.Fatalf("chain depth %d, want 1000", depth)
	}
	if k.Now() != 1000 {
		t.Fatalf("clock %d, want 1000", k.Now())
	}
}

// Property: for any set of non-negative delays, events execute in
// non-decreasing timestamp order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var stamps []Time
		for _, d := range delays {
			k.Schedule(Time(d), func() { stamps = append(stamps, k.Now()) })
		}
		k.Run(nil)
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				return false
			}
		}
		return len(stamps) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 1000; j++ {
			k.Schedule(Time(j%97), func() {})
		}
		k.Run(nil)
	}
}
