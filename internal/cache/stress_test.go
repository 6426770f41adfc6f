package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStressShardedCache hammers the sharded cache from many goroutines
// with overlapping keys and every mutating operation at once — the
// -race guard for the shard locks, the single-flight tables, the LRU
// lists, and the byte accounting.
func TestStressShardedCache(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	c := NewWithOptions(Options{
		Clock:    clk.Now,
		MaxBytes: 64 << 10, // small budget: keeps the LRU eviction path hot
	})
	boom := errors.New("fill failed")

	const (
		goroutines = 16
		iters      = 400
		keyspace   = 24 // overlapping keys across every goroutine
	)
	var wg sync.WaitGroup
	var fillErrs, fillOKs atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%keyspace)
				switch i % 7 {
				case 0, 1:
					var ran atomic.Bool
					e, err := c.GetOrFill(key, time.Minute, func() (Entry, error) {
						ran.Store(true)
						return Entry{Data: make([]byte, 100+(i%11)*100)}, nil
					})
					switch {
					case errors.Is(err, boom) && !ran.Load():
						// This call joined a case-2 caller's failing fill:
						// GetOrFill hands the leader's error to every waiter.
					case err != nil:
						t.Errorf("GetOrFill: %v", err)
					case len(e.Data) == 0:
						t.Error("GetOrFill returned empty entry")
					default:
						fillOKs.Add(1)
					}
				case 2:
					// Failing fills exercise the eager errored-slot release.
					if _, err := c.GetOrFill(key, time.Minute, func() (Entry, error) {
						return Entry{}, boom
					}); err != nil && !errors.Is(err, boom) {
						t.Errorf("unexpected error: %v", err)
					} else if err != nil {
						fillErrs.Add(1)
					}
				case 3:
					c.Put(key, Entry{Data: make([]byte, 64)}, time.Minute)
				case 4:
					c.Get(key)
				case 5:
					c.Delete(key)
				case 6:
					if i%50 == 0 {
						clk.Advance(10 * time.Second)
						c.Sweep()
					} else {
						c.Get(key)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if fillOKs.Load() == 0 {
		t.Error("no successful fills — stress mix is broken")
	}
	// Invariant: the byte accounting must reconcile with what is
	// actually resident once everything quiesces.
	c.Purge()
	if got := c.Bytes(); got != 0 {
		t.Fatalf("Bytes() = %d after purge, want 0 (accounting drifted)", got)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("Len() = %d after purge, want 0", got)
	}
}

// TestStressSingleFlightSameKey focuses every goroutine on ONE key so
// the pending-slot handoff (fill, error release, Delete-during-fill)
// is maximally contended.
func TestStressSingleFlightSameKey(t *testing.T) {
	c := NewWithOptions(Options{MaxBytes: 1 << 20})
	var fills atomic.Int64
	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0, 1, 2:
					e, err := c.GetOrFill("hot", 50*time.Millisecond, func() (Entry, error) {
						fills.Add(1)
						return Entry{Data: []byte("payload")}, nil
					})
					if err != nil {
						t.Errorf("GetOrFill: %v", err)
					} else if string(e.Data) != "payload" {
						t.Errorf("got %q", e.Data)
					}
				case 3:
					c.Delete("hot")
				case 4:
					c.Get("hot")
				}
			}
		}(g)
	}
	wg.Wait()
	total := int64(goroutines * 200 * 3 / 5)
	if f := fills.Load(); f >= total {
		t.Errorf("fills = %d of %d lookups — single-flight is not coalescing", f, total)
	}
}

// TestStressSweeperConcurrentWithTraffic runs the background sweeper
// against live GetOrFill/Delete traffic.
func TestStressSweeperConcurrentWithTraffic(t *testing.T) {
	c := NewWithOptions(Options{MaxBytes: 32 << 10, SweepInterval: time.Millisecond})
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("k%d", i%16)
				if i%3 == 0 {
					c.Delete(key)
					continue
				}
				if _, err := c.GetOrFill(key, time.Millisecond, func() (Entry, error) {
					return Entry{Data: make([]byte, 256)}, nil
				}); err != nil {
					t.Errorf("GetOrFill: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
}
