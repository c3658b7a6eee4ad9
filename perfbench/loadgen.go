package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// loadStats is what one load phase measured. Latencies are in ms.
type loadStats struct {
	lat     []float64
	at      []float64 // completion time of each op, s since the phase start
	op      []int     // index of each op
	lag     []float64 // open loop only: send time − due time
	done    int
	failed  int
	elapsed time.Duration
	offered float64 // open loop only: the fixed rate, ops/s
}

// achieved is the completed-op rate of the phase.
func (s loadStats) achieved() float64 {
	return float64(s.done) / s.elapsed.Seconds()
}

func (s *loadStats) merge(o loadStats) {
	s.lat = append(s.lat, o.lat...)
	s.at = append(s.at, o.at...)
	s.op = append(s.op, o.op...)
	s.lag = append(s.lag, o.lag...)
	s.done += o.done
	s.failed += o.failed
}

// openLoop issues ops at a fixed rate for dur from workers goroutines,
// independent of how fast earlier ops complete. Op i is due at
// start + i/rate; a worker claims the next index, sleeps until it is due,
// and runs it. Latency is timed from the due time, so a stall also counts
// against the ops queued behind it; lag records how late each op was sent.
func openLoop(workers int, rate float64, dur time.Duration, op func(i int) error) loadStats {
	var next atomic.Int64
	start := time.Now()
	total := int64(rate * dur.Seconds())
	per := make([]loadStats, workers)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(st *loadStats) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				err := op(int(i))
				st.record(int(i), start, due, err)
				st.lag = append(st.lag, ms(sent.Sub(due)))
			}
		}(&per[w])
	}
	wg.Wait()
	out := loadStats{elapsed: time.Since(start), offered: rate}
	for _, st := range per {
		out.merge(st)
	}
	return out
}

// closedLoop runs ops 0..n-1 from clients goroutines, each sending its
// next op only when the previous one completes, and stops claiming new ops
// once deadline passes. Latency is timed from each op's send.
func closedLoop(clients, n int, deadline time.Time, op func(i int) error) loadStats {
	var next atomic.Int64
	start := time.Now()
	per := make([]loadStats, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(st *loadStats) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				t0 := time.Now()
				err := op(int(i))
				st.record(int(i), start, t0, err)
			}
		}(&per[c])
	}
	wg.Wait()
	out := loadStats{elapsed: time.Since(start)}
	for _, st := range per {
		out.merge(st)
	}
	return out
}

// record notes op i timed from t0 (its due or send time) in a phase that
// started at start.
func (s *loadStats) record(i int, start, t0 time.Time, err error) {
	now := time.Now()
	s.op = append(s.op, i)
	s.lat = append(s.lat, ms(now.Sub(t0)))
	s.at = append(s.at, now.Sub(start).Seconds())
	s.done++
	if err != nil {
		s.failed++
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// subWindows is how many equal slices a phase is cut into for the
// median-of-slices statistics below, which keep one stall (a GC cycle, a
// neighbour's burst) from moving a whole run's figure.
const subWindows = 10

// sliced groups the latencies of the ops keep accepts (all when nil) by
// the slice of the phase they completed in.
func (s loadStats) sliced(keep func(op int) bool) [][]float64 {
	out := make([][]float64, subWindows)
	span := s.elapsed.Seconds()
	for i, at := range s.at {
		if keep != nil && !keep(s.op[i]) {
			continue
		}
		k := min(int(at/span*subWindows), subWindows-1)
		out[k] = append(out[k], s.lat[i])
	}
	return out
}

// sliceQuantile is the median over the phase's slices of each slice's
// q-quantile latency of the ops keep accepts.
func (s loadStats) sliceQuantile(q float64, keep func(op int) bool) float64 {
	var qs []float64
	for _, sl := range s.sliced(keep) {
		if len(sl) > 0 {
			qs = append(qs, quantile(sl, q))
		}
	}
	return median(qs)
}

// sliceRate is the median over the phase's slices of the completion rate.
func (s loadStats) sliceRate() float64 {
	var rates []float64
	per := s.elapsed.Seconds() / subWindows
	for _, sl := range s.sliced(nil) {
		rates = append(rates, float64(len(sl))/per)
	}
	return median(rates)
}
