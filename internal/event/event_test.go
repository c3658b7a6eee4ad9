package event

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestFIFOAmongTies(t *testing.T) {
	g := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if i%2 == 0 {
			g.Post(5, func(Time) { order = append(order, i) })
		} else {
			g.PostArg(5, func(_ Time, arg int) { order = append(order, arg) }, i)
		}
	}
	g.Run()
	if len(order) != 10 {
		t.Fatalf("fired %d events, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestTimeOrdering(t *testing.T) {
	g := New()
	var fired []Time
	times := []Time{9, 3, 7, 1, 3, 8, 0}
	for _, tm := range times {
		tm := tm
		g.Post(tm, func(now Time) {
			if now != tm {
				t.Errorf("fired at %v, scheduled %v", now, tm)
			}
			fired = append(fired, now)
		})
	}
	end := g.Run()
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Errorf("events out of order: %v", fired)
	}
	if end != 9 {
		t.Errorf("final time %v, want 9", end)
	}
	if g.Steps() != uint64(len(times)) {
		t.Errorf("steps = %d", g.Steps())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	for name, post := range map[string]func(g *Engine){
		"Post":    func(g *Engine) { g.Post(5, func(Time) {}) },
		"PostArg": func(g *Engine) { g.PostArg(5, func(Time, int) {}, 0) },
	} {
		g := New()
		g.Post(10, func(Time) {})
		g.Run()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: scheduling in the past must panic", name)
				}
			}()
			post(g)
		}()
	}
}

func TestNilHandlerPanics(t *testing.T) {
	for name, post := range map[string]func(g *Engine){
		"Post":    func(g *Engine) { g.Post(1, nil) },
		"PostArg": func(g *Engine) { g.PostArg(1, nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: nil handler must panic", name)
				}
			}()
			post(New())
		}()
	}
}

func TestRunLimit(t *testing.T) {
	g := New()
	count := 0
	for i := 0; i < 10; i++ {
		g.Post(Time(i), func(Time) { count++ })
	}
	if g.RunLimit(4) {
		t.Error("queue must not drain in 4 steps")
	}
	if count != 4 {
		t.Errorf("count = %d", count)
	}
	if g.Pending() != 6 {
		t.Errorf("pending = %d, want 6", g.Pending())
	}
	if !g.RunLimit(100) {
		t.Error("queue must drain")
	}
}

func TestDeterministicUnderRandomLoad(t *testing.T) {
	run := func(seed int64) []Time {
		g := New()
		rng := rand.New(rand.NewSource(seed))
		var trace []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 3 {
				return
			}
			g.Post(g.Now()+Time(rng.Intn(100)), func(now Time) {
				trace = append(trace, now)
				spawn(depth + 1)
				spawn(depth + 1)
			})
		}
		spawn(0)
		g.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != 15 {
		t.Fatalf("trace has %d events, want 2^4−1 = 15", len(a))
	}
	if len(a) != len(b) {
		t.Fatal("nondeterministic trace length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic trace")
		}
	}
}

func TestEmptyRun(t *testing.T) {
	g := New()
	if g.Run() != 0 {
		t.Error("empty run must end at time 0")
	}
	if g.Step() {
		t.Error("Step on empty queue must be false")
	}
}

func TestPostAndPostArgPooling(t *testing.T) {
	g := New()
	var order []string
	g.Post(2, func(Time) { order = append(order, "post@2") })
	g.PostArg(1, func(_ Time, arg int) { order = append(order, fmt.Sprintf("arg%d@1", arg)) }, 7)
	g.Post(1, func(Time) { order = append(order, "post@1") })
	g.Run()
	want := []string{"arg7@1", "post@1", "post@2"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}

	// Events are recycled: a chain of sequential Posts reuses one event
	// from the free list instead of allocating per step.
	g2 := New()
	count := 0
	var tick Handler
	tick = func(now Time) {
		count++
		if count < 100 {
			g2.Post(now+1, tick)
		}
	}
	g2.Post(0, tick)
	allocs := testing.AllocsPerRun(1, func() {
		count = 0
		g2.Post(g2.Now(), tick)
		g2.Run()
	})
	if count != 100 {
		t.Fatalf("chain ran %d steps", count)
	}
	// One warm-up run has filled the free list; steady-state scheduling
	// must not allocate per event (allow slack for the heap slice).
	if allocs > 5 {
		t.Errorf("pooled Post allocated %.0f times per run", allocs)
	}
}
