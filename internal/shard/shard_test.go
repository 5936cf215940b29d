package shard

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"peerwindow/internal/des"
)

// A driver over K engines with per-engine periodic events must fire
// every event exactly once, in windows, landing every clock on the
// deadline — for any worker count.
func TestDriverRunCoversAllEvents(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const k = 4
		engines := make([]*des.Engine, k)
		shards := make([]Shard, k)
		counts := make([]int, k)
		for i := 0; i < k; i++ {
			i := i
			e := des.New()
			engines[i] = e
			var tick func()
			tick = func() {
				counts[i]++
				e.After(10, tick)
			}
			e.After(des.Time(i+1), tick) // staggered phases
			shards[i] = e
		}
		d := NewDriver(Config{Lookahead: 3, Workers: workers}, shards...)
		d.Run(100)
		for i, e := range engines {
			if e.Now() != 100 {
				t.Fatalf("workers=%d: engine %d at %v, want 100", workers, i, e.Now())
			}
			if counts[i] != 10 {
				t.Fatalf("workers=%d: engine %d fired %d ticks, want 10", workers, i, counts[i])
			}
		}
	}
}

// The per-window Exchange hook must see every shard parked exactly on
// the horizon, and horizons must be strictly increasing up to the
// deadline.
func TestDriverExchangeAtBarriers(t *testing.T) {
	const k = 3
	engines := make([]*des.Engine, k)
	shards := make([]Shard, k)
	for i := 0; i < k; i++ {
		e := des.New()
		engines[i] = e
		var tick func()
		tick = func() { e.After(7, tick) }
		e.After(7, tick)
		shards[i] = e
	}
	var horizons []des.Time
	d := NewDriver(Config{
		Lookahead: 2,
		Workers:   2,
		Exchange: func(h des.Time) {
			horizons = append(horizons, h)
			for i, e := range engines {
				if e.Now() != h {
					t.Fatalf("engine %d at %v during exchange at %v", i, e.Now(), h)
				}
			}
		},
	}, shards...)
	d.Run(50)
	if len(horizons) == 0 {
		t.Fatalf("exchange never ran")
	}
	for i := 1; i < len(horizons); i++ {
		if horizons[i] <= horizons[i-1] {
			t.Fatalf("horizons not increasing: %v", horizons)
		}
	}
	if last := horizons[len(horizons)-1]; last != 50 {
		t.Fatalf("final exchange at %v, want the deadline 50", last)
	}
}

// Cross-shard effects injected at barriers must execute: shard 0 mails
// shard 1 a value each window through an Exchange hook, mimicking the
// simulator's mailbox pattern.
func TestDriverCrossShardMailboxPattern(t *testing.T) {
	a, b := des.New(), des.New()
	var mb des.Mailbox[int]
	sent, received := 0, 0
	var tick func()
	tick = func() {
		mb.Put(des.Envelope[int]{Dst: 1, At: a.Now() + 5, Key: uint64(sent)})
		sent++
		a.After(10, tick)
	}
	a.After(10, tick)
	d := NewDriver(Config{
		Lookahead: 5,
		Workers:   2,
		Exchange: func(des.Time) {
			mb.Drain(func(env des.Envelope[int]) {
				b.AtKey(env.At, env.Key, des.EventTag{}, func() { received++ })
			})
		},
	}, a, b)
	d.Run(100)
	if sent == 0 || received != sent-1 {
		// The last send (at t=100's window edge) lands at 105, beyond the
		// deadline: scheduled but not yet executed.
		if received != sent {
			t.Fatalf("sent %d, received %d", sent, received)
		}
	}
	if b.Pending() > 1 {
		t.Fatalf("%d undelivered cross-shard events pending", b.Pending())
	}
}

func TestDriverValidation(t *testing.T) {
	e := des.New()
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"no shards", func() { NewDriver(Config{Lookahead: 1}) }},
		{"zero lookahead", func() { NewDriver(Config{}, e) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestRunParallelCoversAllTasks(t *testing.T) {
	const n = 100
	var done [n]int32
	RunParallel(n, 7, func(i int) {
		atomic.AddInt32(&done[i], 1)
	})
	for i, d := range done {
		if d != 1 {
			t.Fatalf("task %d ran %d times", i, d)
		}
	}
}

// With one worker RunParallel must run every task inline, in index
// order, on the caller's goroutine — a serial build starts no goroutine.
func TestRunParallelOneWorkerRunsInline(t *testing.T) {
	caller := goroutineID()
	var order []int
	for _, tc := range []struct{ n, workers int }{{5, 1}, {1, 4}} {
		order = order[:0]
		RunParallel(tc.n, tc.workers, func(i int) {
			if id := goroutineID(); id != caller {
				t.Errorf("n=%d workers=%d: task %d ran on goroutine %d, caller is %d",
					tc.n, tc.workers, i, id, caller)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("n=%d workers=%d: task order %v", tc.n, tc.workers, order)
			}
		}
		if len(order) != tc.n {
			t.Fatalf("n=%d workers=%d: ran %d tasks", tc.n, tc.workers, len(order))
		}
	}
}

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine 18 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

func TestRunParallelDefaults(t *testing.T) {
	var count int32
	RunParallel(5, 0, func(int) { atomic.AddInt32(&count, 1) })
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	RunParallel(0, 3, func(int) { t.Fatalf("task ran for n=0") })
}
