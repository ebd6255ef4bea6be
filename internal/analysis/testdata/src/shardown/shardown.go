// Package shardown exercises the shardown analyzer: worker goroutines
// may write shared slices only at worker-owned indices, and never write
// shared maps or append to shared slices.
package shardown

import (
	"sync"
	"sync/atomic"
)

// atomicClaim is the device.Launch idiom: workers claim indices through
// an atomic counter and own the claimed cell.
func atomicClaim(n int) []int {
	shared := make([]int, n)
	offset := make([]int, n+1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				shared[i] = i * 2
				offset[i+1] = 3
				shared[0] = -1 // want `not derived from the worker-owned index`
			}
		}()
	}
	wg.Wait()
	return shared
}

// perIteration relies on Go's per-iteration loop variables.
func perIteration(items []int) []int {
	out := make([]int, len(items))
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = items[i] * 2
		}()
	}
	wg.Wait()
	return out
}

// mapWrite faults under concurrent writers even at distinct keys.
func mapWrite(m map[int]int) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			m[w] = w // want `write to shared map m`
		}()
	}
	wg.Wait()
}

// appendShared races on the slice length and backing array.
func appendShared(items []int) []int {
	var out []int
	var wg sync.WaitGroup
	for i := range items {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			out = append(out, i) // want `append to shared slice out`
		}()
	}
	wg.Wait()
	return out
}

// guardedProgress is the mutex-guarded progress-callback idiom.
func guardedProgress(n int) int {
	var mu sync.Mutex
	done := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			done++
			mu.Unlock()
		}()
	}
	wg.Wait()
	return done
}

// unguarded increments a captured scalar with no lock held.
func unguarded(n int) int {
	total := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			total += i // want `write to captured variable total`
		}()
	}
	wg.Wait()
	return total
}

type row struct {
	name  string
	rates []float64
}

// ownedElement writes freely inside its own element: once the root-most
// index is owned, everything beneath it is worker-private.
func ownedElement(rows []row, vals []float64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := int(next.Add(1)) - 1
			if i >= len(rows) {
				return
			}
			rows[i].name = "k"
			for j := range vals {
				rows[i].rates[j] = vals[j]
			}
			rows[0].rates[i] = 0 // want `not derived from the worker-owned index`
		}()
	}
	wg.Wait()
}

// runGrid is a dispatcher: it invokes its func parameter from worker
// goroutines with an owned index, so callbacks passed to it are worker
// bodies with fn's first argument owned.
func runGrid(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for t := 0; t < n; t++ {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[t] = fn(t)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// useDispatcher's callback owns i but not index 0.
func useDispatcher(n int) ([]int, error) {
	out := make([]int, n)
	err := runGrid(n, func(i int) error {
		out[i] = i * i
		out[0] = 1 // want `not derived from the worker-owned index`
		return nil
	})
	return out, err
}

// eachName layers a dispatcher over runGrid: it invokes its own func
// parameter from inside the callback it hands runGrid, so it is a
// dispatcher too, with both arguments owned (names[i] is read at the
// owned index).
func eachName(names []string, fn func(i int, name string) error) error {
	return runGrid(len(names), func(i int) error {
		return fn(i, names[i])
	})
}

// useLayered's callback is a worker body through two dispatcher layers.
func useLayered(names []string) ([]int, error) {
	out := make([]int, len(names))
	err := eachName(names, func(i int, name string) error {
		out[i] = len(name)
		out[0] = 1 // want `not derived from the worker-owned index`
		return nil
	})
	return out, err
}

// fill is a helper handed a shared slice plus an owned index: ownership
// facts propagate into it from helperCall's worker body.
func fill(dst []int, i, v int) {
	dst[i] = v
	dst[0] = v // want `not derived from the worker-owned index`
}

func helperCall(n int) []int {
	out := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(out, i, i)
		}()
	}
	wg.Wait()
	return out
}

// channelItems treats received work items as owned.
func channelItems(ch chan int, out []int) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				out[i] = i
			}
		}()
	}
	wg.Wait()
}

// suppressedWrite carries a reason, so the finding is filtered.
func suppressedWrite(n int) int {
	total := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			total += i //st2:det-ok test fixture: demonstrating suppression
		}()
	}
	wg.Wait()
	return total
}
