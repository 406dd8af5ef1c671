package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the open loop's time source; tests substitute a virtual one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// spinWindow is how long before a due time the open loop stops sleeping
// and yields in a loop instead: a timer wake-up can be late by more than
// a cached request takes, and that lateness would be charged to the
// system under test.
const spinWindow = 300 * time.Microsecond

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// send is one scheduled request: when it was due, when a connection was
// free to send it, and when its last response byte arrived.
type send struct {
	Index      int
	Due, Start time.Time
	End        time.Time
}

// lag is how late the generator sent the request.
func (s send) lag() time.Duration { return s.Start.Sub(s.Due) }

// latency is timed from the due time, so a stall also charges the
// requests that queued behind it.
func (s send) latency() time.Duration { return s.End.Sub(s.Due) }

// openLoop offers n requests at a fixed rate from t0 over conns workers,
// each holding at most one request (and so one client connection) at a
// time. Request i is due at t0 + i/rate; a worker takes the next index,
// waits until it is due, and calls do with the index and due time. With
// maxLag > 0 the loop gives up offering once a request starts more than
// maxLag late, and reports aborted. It returns every send made, in index
// order, after all workers have finished. A rate of 0 makes every request
// due at t0: a closed loop, in which each worker sends its next request as
// soon as its last one completes, and maxLag bounds its length.
func openLoop(clk clock, t0 time.Time, rate float64, n, conns int, maxLag time.Duration, do func(i int, due time.Time)) (sends []send, aborted bool) {
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	var next atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || stop.Load() {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				clk.SleepUntil(due)
				s := send{Index: i, Due: due, Start: clk.Now()}
				if maxLag > 0 && s.lag() > maxLag {
					stop.Store(true)
					return
				}
				do(i, due)
				s.End = clk.Now()
				mu.Lock()
				sends = append(sends, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(sends, func(a, b int) bool { return sends[a].Index < sends[b].Index })
	return sends, stop.Load()
}

// backlog returns, for each send in index order, how many later requests
// were already due but not yet started when it started.
func backlog(sends []send, t0 time.Time, rate float64) []int {
	interval := float64(time.Second) / rate
	out := make([]int, len(sends))
	for k, s := range sends {
		due := int(float64(s.Start.Sub(t0))/interval) + 1
		if b := due - s.Index - 1; b > 0 {
			out[k] = b
		}
	}
	return out
}

// backlogGrew reports whether the queue in front of the connections grew
// over the phase: the last send found more than a threshold of requests
// waiting — the larger of the connection count and one in twenty of the
// phase's sends — and the mean backlog of the second half of the sends
// exceeds that of the first half by half the threshold. A stable loop
// drains its spikes, however large they get near capacity; an overloaded
// one falls behind by a share of its rate.
func backlogGrew(b []int, conns int) bool {
	if len(b) < 2 {
		return false
	}
	threshold := max(conns, len(b)/20)
	h := len(b) / 2
	var first, second float64
	for _, x := range b[:h] {
		first += float64(x)
	}
	for _, x := range b[h:] {
		second += float64(x)
	}
	first /= float64(h)
	second /= float64(len(b) - h)
	return b[len(b)-1] > threshold && second-first > float64(threshold)/2
}

// The serve-fleet traffic classes.
const (
	classHot = iota
	classFresh
	classEdit
	classVerify
	classAsync
	classInvalid
	numClasses
)

var classNames = [numClasses]string{"hot", "fresh", "edit", "verify", "async", "invalid"}

// classCards is the mix as a deck of 20 cards: 55% hot, 15% fresh, 10%
// edit, 10% verify, 5% async and 5% invalid.
var classCards = [numClasses]int{11, 3, 2, 2, 1, 1}

// deck deals the integers [0, n) in seeded shuffled rounds, so every
// round of n draws holds each value exactly once. Dealing the mix this way
// instead of drawing it independently keeps its proportions, and so the
// work a run does, the same for every seed; the seed sets the order.
type deck struct {
	r     *rand.Rand
	order []int
	next  int
}

func newDeck(r *rand.Rand, n int) *deck { return &deck{r: r, order: make([]int, n), next: n} }

func (d *deck) draw() int {
	if d.next == len(d.order) {
		copy(d.order, d.r.Perm(len(d.order)))
		d.next = 0
	}
	d.next++
	return d.order[d.next-1]
}

// classDeck deals traffic classes in the mix's proportions.
type classDeck struct {
	cards []int
	d     *deck
}

func newClassDeck(r *rand.Rand) *classDeck {
	var cards []int
	for c, n := range classCards {
		for i := 0; i < n; i++ {
			cards = append(cards, c)
		}
	}
	return &classDeck{cards: cards, d: newDeck(r, len(cards))}
}

func (c *classDeck) draw() int { return c.cards[c.d.draw()] }

// zipfS is the hot-key skew: the most popular of a few hundred keys takes
// about a fifth of the hot traffic.
const zipfS = 1.1

// newZipf draws hot-key ranks in [0, n).
func newZipf(r *rand.Rand, n int) *rand.Zipf {
	return rand.NewZipf(r, zipfS, 1, uint64(n-1))
}
