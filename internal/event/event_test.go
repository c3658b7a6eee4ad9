package event

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Queued events must stay small plain values: a pointer-typed field would
// bring back GC write barriers on every heap move.
func TestEventIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(event{})
	if typ.Size() > 32 {
		t.Errorf("event is %d bytes, want at most 32", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int32, reflect.Int64,
			reflect.Uint32, reflect.Uint64, reflect.Float64:
		default:
			t.Errorf("event field %s has kind %s, want a plain scalar", f.Name, f.Type.Kind())
		}
	}
}

func TestFIFOAmongTies(t *testing.T) {
	g := New()
	var order []int
	k := g.Handle(func(_ Time, arg int) { order = append(order, arg) })
	for i := 0; i < 10; i++ {
		i := i
		if i%2 == 0 {
			g.Post(5, func(Time) { order = append(order, i) })
		} else {
			g.PostArg(5, k, i)
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
	k := g.Handle(func(now Time, i int) {
		if now != times[i] {
			t.Errorf("fired at %v, scheduled %v", now, times[i])
		}
		fired = append(fired, now)
	})
	for i, tm := range times {
		g.PostArg(tm, k, i)
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

// mustPanic runs f and reports an error unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s must panic", what)
		}
	}()
	f()
}

func TestSchedulePastPanics(t *testing.T) {
	g := New()
	k := g.Handle(func(Time, int) {})
	g.PostArg(10, k, 0)
	g.Run()
	mustPanic(t, "Post in the past", func() { g.Post(5, func(Time) {}) })
	mustPanic(t, "PostArg in the past", func() { g.PostArg(5, k, 0) })
	if g.Pending() != 0 {
		t.Errorf("rejected posts left %d events queued", g.Pending())
	}
}

func TestNilHandlerPanics(t *testing.T) {
	mustPanic(t, "Post(nil)", func() { New().Post(1, nil) })
	mustPanic(t, "Handle(nil)", func() { New().Handle(nil) })
}

func TestUnknownKindPanics(t *testing.T) {
	g := New()
	k := g.Handle(func(Time, int) {})
	mustPanic(t, "PostArg with the zero Kind", func() { g.PostArg(1, 0, 0) })
	mustPanic(t, "PostArg with an unregistered Kind", func() { g.PostArg(1, k+1, 0) })
	mustPanic(t, "PostArg with another engine's Kind", func() { New().PostArg(1, k, 0) })
	g.PostArg(1, k, 0) // the registered kind still works
	if g.Pending() != 1 {
		t.Errorf("pending = %d, want 1", g.Pending())
	}
}

func TestRunLimit(t *testing.T) {
	g := New()
	count := 0
	k := g.Handle(func(Time, int) { count++ })
	for i := 0; i < 10; i++ {
		g.PostArg(Time(i), k, i)
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

// TestOrderOracle checks the heap against its specification on random
// workloads: the firing order of every event ever posted equals a stable
// sort of the posts by time, i.e. (time, post order). Each seed mixes
// Post closures with PostArg across several kinds, posts from inside
// handlers (some at exactly now), draws times from a small set so ties
// are common, and drains in random RunLimit slices with outside posts
// between them.
func TestOrderOracle(t *testing.T) {
	for seed := int64(0); seed < 256; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()

		type post struct {
			time Time
			kind Kind // 0 for a Post closure
		}
		var posts []post // indexed by post id
		var fired []int  // post ids in firing order
		budget := 200 + rng.Intn(1800)

		var kinds []Kind
		var postRandom func()
		fire := func(k Kind, now Time, id int) {
			if posts[id].kind != k {
				t.Fatalf("seed %d: post %d (kind %d) fired through kind %d", seed, id, posts[id].kind, k)
			}
			if posts[id].time != now {
				t.Fatalf("seed %d: post %d at %v fired at %v", seed, id, posts[id].time, now)
			}
			fired = append(fired, id)
			for n := rng.Intn(3); n > 0; n-- {
				postRandom()
			}
		}
		for i := 0; i < 3; i++ {
			var k Kind
			k = g.Handle(func(now Time, id int) { fire(k, now, id) })
			kinds = append(kinds, k)
		}
		deltas := []Time{0, 0, 1, 2, 5, 0.5}
		postRandom = func() {
			if len(posts) >= budget {
				return
			}
			id := len(posts)
			at := g.Now() + deltas[rng.Intn(len(deltas))]
			if rng.Intn(2) == 0 {
				posts = append(posts, post{time: at})
				g.Post(at, func(now Time) { fire(0, now, id) })
			} else {
				k := kinds[rng.Intn(len(kinds))]
				posts = append(posts, post{time: at, kind: k})
				g.PostArg(at, k, id)
			}
		}

		for i := 0; i < 20; i++ {
			postRandom()
		}
		for g.Pending() > 0 {
			want := g.Steps() + uint64(rng.Intn(40))
			drained := g.RunLimit(want - g.Steps())
			if drained != (g.Pending() == 0) {
				t.Fatalf("seed %d: RunLimit reported drained=%v with %d pending", seed, drained, g.Pending())
			}
			if !drained && g.Steps() != want {
				t.Fatalf("seed %d: RunLimit stopped at %d steps, want %d", seed, g.Steps(), want)
			}
			for n := rng.Intn(4); n > 0; n-- {
				postRandom() // resume with posts from outside any handler
			}
		}

		if len(fired) != len(posts) || g.Steps() != uint64(len(posts)) {
			t.Fatalf("seed %d: fired %d of %d posts in %d steps", seed, len(fired), len(posts), g.Steps())
		}
		want := make([]int, len(posts))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return posts[want[i]].time < posts[want[j]].time })
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: firing %d is post %d, want post %d", seed, i, fired[i], want[i])
			}
		}
		if last := posts[want[len(want)-1]].time; g.Now() != last {
			t.Fatalf("seed %d: clock at %v, want %v", seed, g.Now(), last)
		}
	}
}

// Post closures and PostArg kinds share one (time, seq) order, and a
// warm engine (queue and slot table grown to their working size)
// schedules and fires through either without allocating.
func TestPostAndPostArgPooling(t *testing.T) {
	g := New()
	var order []string
	k := g.Handle(func(_ Time, arg int) { order = append(order, fmt.Sprintf("arg%d@1", arg)) })
	g.Post(2, func(Time) { order = append(order, "post@2") })
	g.PostArg(1, k, 7)
	g.Post(1, func(Time) { order = append(order, "post@1") })
	g.Run()
	if want := []string{"arg7@1", "post@1", "post@2"}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}

	g = New()
	k = g.Handle(func(Time, int) {})
	tick := Handler(func(Time) {})
	for i := 0; i < 64; i++ {
		g.PostArg(Time(i), k, i)
		g.Post(Time(i), tick)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		g.PostArg(g.Now()+3, k, 1)
		g.Step()
	}); allocs != 0 {
		t.Errorf("warm PostArg+Step allocated %.1f times", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		g.Post(g.Now()+3, tick)
		g.Step()
	}); allocs != 0 {
		t.Errorf("warm Post+Step allocated %.1f times", allocs)
	}
	// At most Pending()+1 closures were ever parked at once: the table
	// reuses fired slots instead of growing per Post.
	if limit := g.Pending() + 1; len(g.slots) > limit {
		t.Errorf("slot table grew to %d for at most %d parked closures", len(g.slots), limit)
	}
}

// BenchmarkEngine times the event core alone, the first rung of the
// layer ladder: a steady population of pending events where every fired
// event re-posts itself through PostArg at now+δ. δ comes from a small
// fixed set, so equal times (seq tie-breaks) are common, as in replays.
func BenchmarkEngine(b *testing.B) {
	deltas := [8]Time{0, 1, 1, 2, 3, 5, 8, 13}
	for _, pending := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			g := New()
			var k Kind
			x := uint32(1)
			k = g.Handle(func(now Time, arg int) {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				g.PostArg(now+deltas[x&7], k, arg)
			})
			for p := 0; p < pending; p++ {
				g.PostArg(deltas[p&7], k, p)
			}
			g.RunLimit(uint64(pending)) // grow the queue to its working size
			b.ReportAllocs()
			b.ResetTimer()
			g.RunLimit(uint64(b.N))
			b.StopTimer()
			if g.Pending() != pending {
				b.Fatalf("pending drifted to %d", g.Pending())
			}
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(b.N)/sec, "events/s")
			b.ReportMetric(sec*1e9/float64(b.N), "ns/event")
		})
	}
}
