package main

import (
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule returns the due offsets of an open-loop Poisson
// arrival process at rate per second, over window. The same rng state
// gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// fixedSchedule returns n due offsets spaced evenly at rate per second,
// the first one at 0.
func fixedSchedule(rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// zipfStream draws n indices in [0, universe) with Zipf exponent s:
// index 0 is the most popular. The same rng state gives the same stream.
func zipfStream(rng *rand.Rand, s float64, universe, n int) []int {
	z := rand.NewZipf(rng, s, 1, uint64(universe-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// openLoop calls fire(i) on its own goroutine at start+due[i], however
// long earlier calls take, and waits for every call to return. It
// returns how late each call was started against its due time, the
// generator's own lateness.
func openLoop(start time.Time, due []time.Duration, fire func(i int)) []time.Duration {
	lag := make([]time.Duration, len(due))
	var wg sync.WaitGroup
	for i, d := range due {
		if w := time.Until(start.Add(d)); w > 0 {
			time.Sleep(w)
		}
		lag[i] = max(time.Since(start.Add(d)), 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(i)
		}()
	}
	wg.Wait()
	return lag
}
