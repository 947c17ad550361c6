package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func drainAll(q *ingestQueue) []float64 {
	var out []float64
	for {
		vals, ok := q.pop(nil, 1<<20)
		if !ok {
			return out
		}
		out = append(out, vals...)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := newIngestQueue(8, new(sync.WaitGroup))
	queued, shed, _ := q.push([]float64{1, 2, 3})
	if queued != 3 || shed != 0 {
		t.Fatalf("push: queued %d shed %d, want 3, 0", queued, shed)
	}
	vals, ok := q.pop(nil, 8)
	if !ok {
		t.Fatal("pop found a queue holding 3 values empty")
	}
	if len(vals) != 3 || vals[0] != 1 || vals[1] != 2 || vals[2] != 3 {
		t.Fatalf("pop order: %v, want [1 2 3]", vals)
	}
}

func TestQueueShedsOldest(t *testing.T) {
	q := newIngestQueue(4, new(sync.WaitGroup))
	q.push([]float64{1, 2, 3, 4})
	queued, shed, _ := q.push([]float64{5, 6})
	if queued != 2 || shed != 2 {
		t.Fatalf("overflow push: queued %d shed %d, want 2, 2", queued, shed)
	}
	vals, _ := q.pop(nil, 8)
	want := []float64{3, 4, 5, 6}
	if len(vals) != len(want) {
		t.Fatalf("after shed: %v, want %v", vals, want)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("after shed: %v, want %v (oldest must go first)", vals, want)
		}
	}
}

func TestQueueBurstLargerThanCapacity(t *testing.T) {
	q := newIngestQueue(4, new(sync.WaitGroup))
	q.push([]float64{0, 0})
	queued, shed, _ := q.push([]float64{1, 2, 3, 4, 5, 6, 7})
	// As if pushed one at a time: all 7 are queued, and the 2 resident
	// values plus the burst's own oldest 3 are shed; the newest 4 survive.
	if queued != 7 || shed != 5 {
		t.Fatalf("burst push: queued %d shed %d, want 7, 5", queued, shed)
	}
	vals, _ := q.pop(nil, 8)
	want := []float64{4, 5, 6, 7}
	if len(vals) != len(want) {
		t.Fatalf("burst: kept %v, want %v", vals, want)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("burst: kept %v, want %v", vals, want)
		}
	}
}

func TestQueueCloseDrainsEverything(t *testing.T) {
	q := newIngestQueue(16, new(sync.WaitGroup))
	q.push([]float64{1, 2, 3, 4, 5})
	q.close()
	q.close() // idempotent
	if queued, _, start := q.push([]float64{9}); queued != 0 || start {
		t.Fatalf("push after close: queued %d, start %v; want 0, false", queued, start)
	}
	got := drainAll(q)
	if len(got) != 5 {
		t.Fatalf("drained %d values after close, want all 5", len(got))
	}
}

// TestQueuePushStartsOneDrainer pins the drainer lifecycle: a push to an
// idle queue asks for exactly one drainer and counts it in the wait
// group, pushes while it runs ask for none, and once a pop finds the
// queue empty and retires it, the next push asks again.
func TestQueuePushStartsOneDrainer(t *testing.T) {
	var wg sync.WaitGroup
	q := newIngestQueue(8, &wg)
	if _, _, start := q.push([]float64{1}); !start {
		t.Fatal("push to an idle queue started no drainer")
	}
	for i := 0; i < 3; i++ {
		if _, _, start := q.push([]float64{2, 3}); start {
			t.Fatal("push with a drainer running started another")
		}
	}
	if got := drainAll(q); len(got) != 7 {
		t.Fatalf("drained %v, want 7 values", got)
	}
	wg.Done() // the retired drainer
	if _, _, start := q.push([]float64{4}); !start {
		t.Fatal("push after the drainer retired started none")
	}
	if _, _, start := q.push([]float64{5}); start {
		t.Fatal("second push started a second drainer")
	}
	wg.Done()
	wg.Wait() // exactly two drainers were counted, or this panics or hangs
}

func TestQueueConcurrentProducersDrainExactly(t *testing.T) {
	var drainers sync.WaitGroup
	q := newIngestQueue(1<<16, &drainers) // never sheds at this load
	const producers, perProducer = 8, 1000
	var mu sync.Mutex
	var got []float64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				_, shed, start := q.push([]float64{float64(p*perProducer + i)})
				if shed != 0 {
					t.Errorf("shed %d values in an uncontended queue", shed)
				}
				if start {
					go func() {
						defer drainers.Done()
						vals := drainAll(q)
						mu.Lock()
						got = append(got, vals...)
						mu.Unlock()
					}()
				}
			}
		}(p)
	}
	wg.Wait()
	q.close()
	drainers.Wait()
	if len(got) != producers*perProducer {
		t.Fatalf("drained %d values, want %d (accepted values must never vanish)",
			len(got), producers*perProducer)
	}
	next := make([]int, producers)
	for _, v := range got {
		p, i := int(v)/perProducer, int(v)%perProducer
		if i != next[p] {
			t.Fatalf("producer %d: drained value %d where %d was next", p, i, next[p])
		}
		next[p]++
	}
}

// TestIdleAttributesHoldNoIngestMemory pins that an attribute's ingest
// memory follows its data: once 512 attributes have drained 1,024
// values each, no drainer goroutine is left and the heap holds what
// their samples and fits need, not a ring per attribute.
func TestIdleAttributesHoldNoIngestMemory(t *testing.T) {
	const attrs, perAttr = 512, 1024
	cfg := AttrConfig{DomainLo: 0, DomainHi: 1, ReservoirSize: 512, Seed: 7}
	values := seq(perAttr)
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()

	s := mustServer(t, Options{})
	for i := 0; i < attrs; i++ {
		name := fmt.Sprintf("a%03d", i)
		if err := s.CreateAttr("acme", name, cfg); err != nil {
			t.Fatal(err)
		}
		if res, err := s.Ingest("acme", name, values); err != nil || res.Queued != perAttr || res.Shed != 0 {
			t.Fatalf("ingest %s: %+v, %v", name, res, err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().QueueDepth != 0 || s.drainers.Load() != 0 || runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("not idle: queue depth %d, %d drainers, %d goroutines (%d before the attributes)",
				s.Stats().QueueDepth, s.drainers.Load(), runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	for _, a := range s.attributes() {
		if n := a.est.Inserts(); n != perAttr {
			t.Fatalf("%s: %d values inserted, want %d", a.name, n, perAttr)
		}
	}

	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	perAttrBytes := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / attrs
	t.Logf("idle attribute: %.1f KB of heap", float64(perAttrBytes)/1024)
	if perAttrBytes > 24<<10 {
		t.Fatalf("idle attribute holds %.1f KB of heap, want under 24 KB", float64(perAttrBytes)/1024)
	}
	runtime.KeepAlive(s)
}

// TestDrainerRestartRacesClose has producers push small batches while
// drainers retire on empty queues and restart, and Close runs partway
// through. Every accepted value must reach its reservoir exactly once,
// in each producer's push order, and Close must return only after the
// last drainer a push started. Reservoirs outsize the stream, so each
// holds every inserted value in insertion order; a fit published up
// front makes the drainers refit every 64 values, which keeps a drainer
// busy long enough for a second one, had it been started, to overtake it.
func TestDrainerRestartRacesClose(t *testing.T) {
	const attrs, producersPerAttr, batches = 4, 2, 300
	s := mustServer(t, Options{QueueCap: 1 << 16})
	cfg := AttrConfig{DomainLo: 0, DomainHi: 1 << 20, ReservoirSize: 1 << 13, RefitEvery: 64, Seed: 7}
	for i := 0; i < attrs; i++ {
		if err := s.CreateAttr("acme", fmt.Sprint(i), cfg); err != nil {
			t.Fatal(err)
		}
		a, err := s.attr("acme", fmt.Sprint(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.est.InsertBatch([]float64{0.25, 0.5, 0.75}); err != nil {
			t.Fatal(err)
		}
		if err := a.est.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	accepted := make([]int, attrs*producersPerAttr)
	var wg, halfway sync.WaitGroup
	halfway.Add(len(accepted))
	for p := range accepted {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			passedHalfway := sync.OnceFunc(halfway.Done)
			defer passedHalfway()
			attr := fmt.Sprint(p % attrs)
			for b := 0; b < batches; b++ {
				if b == batches/2 {
					passedHalfway()
				}
				batch := make([]float64, 1+b%4)
				for i := range batch {
					batch[i] = float64((p+1)<<16 + accepted[p] + i)
				}
				res, err := s.Ingest("acme", attr, batch)
				if errors.Is(err, ErrDraining) {
					return
				}
				if err != nil || res.Shed != 0 {
					t.Errorf("ingest: %+v, %v", res, err)
					return
				}
				accepted[p] += res.Queued
				if b%8 == 0 {
					runtime.Gosched() // let the queue run dry so its drainer retires
				}
			}
		}(p)
	}
	halfway.Wait()
	if err := s.Close(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	if n := s.drainers.Load(); n != 0 {
		t.Fatalf("Close returned with %d drainers running", n)
	}
	inserted := make([][]float64, attrs)
	for i := range inserted {
		a, err := s.attr("acme", fmt.Sprint(i))
		if err != nil {
			t.Fatal(err)
		}
		inserted[i] = a.est.ReservoirValues()
	}
	wg.Wait()
	// A producer's push can precede its depth update, so the total is
	// read once every producer has returned.
	if d := s.Stats().QueueDepth; d != 0 {
		t.Fatalf("%d values still counted as queued after Close", d)
	}
	for i, vals := range inserted {
		next := map[int]int{}
		for _, v := range vals[3:] {
			p, seq := int(v)>>16-1, int(v)&(1<<16-1)
			if seq != next[p] {
				t.Fatalf("attribute %d: producer %d's value %d reached the reservoir where %d was next",
					i, p, seq, next[p])
			}
			next[p]++
		}
		for p := i; p < len(accepted); p += attrs {
			if next[p] != accepted[p] {
				t.Fatalf("attribute %d: %d of producer %d's %d accepted values inserted",
					i, next[p], p, accepted[p])
			}
		}
	}
}
