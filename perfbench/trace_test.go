package main

import "testing"

// scripted returns a clock that yields ts in order.
func scripted(t *testing.T, ts ...int64) func() int64 {
	i := 0
	return func() int64 {
		if i >= len(ts) {
			t.Fatalf("clock read %d times, scripted %d", i+1, len(ts))
		}
		i++
		return ts[i-1]
	}
}

func TestSelfTimeFakeClock(t *testing.T) {
	// step [0,100) with children a [10,30) and b [40,70); a has child c
	// [12,20).
	tr := NewTracer(scripted(t, 0, 10, 12, 20, 30, 40, 70, 100))
	root := tr.Begin("step")
	a := tr.Begin("a")
	c := tr.Begin("c")
	tr.End(c, 3)
	tr.End(a, 5)
	b := tr.Begin("b")
	tr.End(b, 7)
	tr.End(root, 0)

	spans := tr.Spans()
	if spans[a].Parent != root || spans[c].Parent != a || spans[b].Parent != root || spans[root].Parent != -1 {
		t.Fatalf("parent links wrong: %+v", spans)
	}
	self := SelfTimes(spans)
	for id, want := range map[int32]int64{root: 100 - 20 - 30, a: 20 - 8, c: 8, b: 30} {
		if self[id] != want {
			t.Errorf("self(%s) = %d, want %d", spans[id].Name, self[id], want)
		}
	}

	st := Summarize(spans)
	if got := st["step/a/c"]; got.Count != 1 || got.Dur != 8 || got.Work != 3 {
		t.Errorf("step/a/c = %+v", got)
	}
	if got := Sum(st, "c"); got.Dur != 8 {
		t.Errorf("Sum(c) = %+v", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Children overlapping each other and sticking out of the parent are
	// counted once and clipped: covered = [10,50) ∪ [90,100) = 50.
	spans := []Span{
		{ID: 0, Parent: -1, Name: "p", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "x", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "y", Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "z", Start: 90, End: 120},
	}
	if got := SelfTimes(spans)[0]; got != 50 {
		t.Fatalf("self = %d, want 50", got)
	}
}

func TestTracerRejectsOutOfOrderEnd(t *testing.T) {
	tr := NewTracer(scripted(t, 0, 1))
	outer := tr.Begin("outer")
	tr.Begin("inner")
	defer func() {
		if recover() == nil {
			t.Fatal("closing the outer span first did not panic")
		}
	}()
	tr.End(outer, 0)
}
