package main

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// fakeClock is a virtual clock: sleeping jumps to the wake-up time and a
// request advances time by its service time. It serves one worker only.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueAndCountsLag(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	t0 := clk.now
	// 100/s: one request due every 10 ms. The first takes 35 ms, so the
	// next three start late and the fifth is back on schedule.
	service := []time.Duration{35, 1, 1, 1, 1}
	sends, aborted := openLoop(clk, t0, 100, len(service), 1, 0, func(i int, due time.Time) {
		if want := t0.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Errorf("request %d due at %v, want %v", i, due.Sub(t0), want.Sub(t0))
		}
		clk.now = clk.now.Add(service[i] * time.Millisecond)
	})
	if aborted || len(sends) != len(service) {
		t.Fatalf("got %d sends (aborted %v), want %d", len(sends), aborted, len(service))
	}
	wantLag := []time.Duration{0, 25, 16, 7, 0}
	wantLatency := []time.Duration{35, 26, 17, 8, 1}
	for i, s := range sends {
		if s.lag() != wantLag[i]*time.Millisecond {
			t.Errorf("send %d lag = %v, want %vms", i, s.lag(), wantLag[i])
		}
		if s.latency() != wantLatency[i]*time.Millisecond {
			t.Errorf("send %d latency = %v, want %vms (timed from its due time)", i, s.latency(), wantLatency[i])
		}
	}
	// Request 1 starts at 35 ms, when requests 2 and 3 are also due.
	wantBacklog := []int{0, 2, 1, 0, 0}
	for i, b := range backlog(sends, t0, 100) {
		if b != wantBacklog[i] {
			t.Errorf("send %d backlog = %d, want %d", i, b, wantBacklog[i])
		}
	}
}

func TestOpenLoopAbortsPastMaxLag(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	// Every request takes 25 ms at 100/s, so lag grows 15 ms per request
	// and passes 40 ms at the fourth.
	sends, aborted := openLoop(clk, clk.now, 100, 100, 1, 40*time.Millisecond, func(int, time.Time) {
		clk.now = clk.now.Add(25 * time.Millisecond)
	})
	if !aborted || len(sends) != 3 {
		t.Errorf("got %d sends, aborted %v; want 3 sends and an abort", len(sends), aborted)
	}
}

func TestClosedLoopSendsBackToBackUntilMaxLag(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	t0 := clk.now
	// Rate 0: every request is due at t0 and follows the last one at
	// once. Requests of 10 ms fill a 35 ms closed loop with four sends:
	// the fifth would start 40 ms in.
	sends, aborted := openLoop(clk, t0, 0, 100, 1, 35*time.Millisecond, func(i int, due time.Time) {
		if !due.Equal(t0) {
			t.Errorf("request %d due at %v, want t0", i, due.Sub(t0))
		}
		clk.now = clk.now.Add(10 * time.Millisecond)
	})
	if !aborted || len(sends) != 4 {
		t.Fatalf("got %d sends, aborted %v; want 4 sends and the loop ended by its length", len(sends), aborted)
	}
	for i, s := range sends {
		if want := t0.Add(time.Duration(i) * 10 * time.Millisecond); !s.Start.Equal(want) {
			t.Errorf("send %d started at %v, want %v", i, s.Start.Sub(t0), want.Sub(t0))
		}
	}
}

func TestBacklogGrew(t *testing.T) {
	for _, c := range []struct {
		name string
		b    []int
		want bool
	}{
		{"idle", []int{0, 0, 0, 0, 0, 0}, false},
		{"a drained spike", []int{0, 3, 5, 2, 0, 0, 0, 0}, false},
		{"steady growth", []int{0, 1, 2, 3, 4, 5, 6, 7}, true},
		{"grew but drained at the end", []int{0, 0, 0, 0, 6, 6, 6, 1}, false},
	} {
		if got := backlogGrew(c.b, 2); got != c.want {
			t.Errorf("%s: backlogGrew(%v) = %v, want %v", c.name, c.b, got, c.want)
		}
	}
}

func TestMixIsDeterministicForASeed(t *testing.T) {
	a, b := newMixGen(7).take(400), newMixGen(7).take(400)
	for i := range a {
		if a[i].class != b[i].class || !bytes.Equal(a[i].body, b[i].body) || a[i].path != b[i].path {
			t.Fatalf("request %d differs between two generators with seed 7", i)
		}
	}
	c := newMixGen(8).take(400)
	same := 0
	for i := range a {
		if bytes.Equal(a[i].body, c[i].body) {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 drew the same stream")
	}
}

func TestZipfAndClassDrawsAreDeterministic(t *testing.T) {
	draw := func(seed int64) ([]int, []uint64) {
		r := rand.New(rand.NewSource(seed))
		classes, z := newClassDeck(r), newZipf(r, 252)
		var cs []int
		var zs []uint64
		for i := 0; i < 1000; i++ {
			cs = append(cs, classes.draw())
			zs = append(zs, z.Uint64())
		}
		return cs, zs
	}
	c1, z1 := draw(3)
	c2, z2 := draw(3)
	for i := range c1 {
		if c1[i] != c2[i] || z1[i] != z2[i] {
			t.Fatalf("draw %d differs for the same seed", i)
		}
	}
}

func TestClassDeckDealsExactProportions(t *testing.T) {
	classes := newClassDeck(rand.New(rand.NewSource(1)))
	for round := 0; round < 50; round++ {
		var counts [numClasses]int
		for i := 0; i < 20; i++ {
			counts[classes.draw()]++
		}
		if counts != classCards {
			t.Fatalf("round %d dealt %v, want %v", round, counts, classCards)
		}
	}
}

func TestZipfFavorsLowRanks(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	z := newZipf(r, 252)
	counts := make([]int, 252)
	for i := 0; i < 20000; i++ {
		counts[z.Uint64()]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[200] {
		t.Errorf("rank counts not decreasing: r0 %d r1 %d r10 %d r200 %d", counts[0], counts[1], counts[10], counts[200])
	}
}

func TestMixStaysInValidDomains(t *testing.T) {
	for _, req := range newMixGen(5).take(3000) {
		body := string(req.body)
		if strings.Contains(body, `"QAOA-regular3"`) {
			for _, odd := range []string{`"qubits":11,`, `"qubits":13,`, `"qubits":5,`, `"qubits":25,`, `"qubits":39,`} {
				if strings.Contains(body, odd) {
					t.Errorf("QAOA-regular3 drawn with an odd size: %s", body)
				}
			}
		}
		if req.class != classInvalid && req.ref == nil {
			t.Errorf("%s request has no reference: %s", classNames[req.class], body)
		}
	}
}
