package server

import "sync"

// ingestQueue is the bounded buffer between an attribute's ingest
// requests and its reservoir, with shed-oldest overflow. A push returns
// as soon as its values are queued — ingest latency never includes a
// reservoir lock — and a drainer goroutine pops batches into
// online.Estimator.InsertBatch.
//
// Memory follows the data. The queued values live in a slice that grows
// as they arrive and leaves the queue with the pop that takes the last
// of them, and the drainer runs only while values are queued: a push to
// an idle queue starts one, counted in wg under the queue lock so a
// closer waiting on wg cannot miss it, and it retires when a pop finds
// nothing left. An idle attribute holds neither buffer nor goroutine.
//
// Backpressure policy: when the producer outruns the drainer the queue
// sheds its *oldest* values (the ones a reservoir sample is least likely
// to miss — newer data carries the drift signal) and counts every shed in
// telemetry, so overload degrades sample freshness visibly instead of
// blocking the request path or growing without bound.
type ingestQueue struct {
	mu       sync.Mutex
	capacity int
	vals     []float64 // vals[head:] are queued, oldest first
	head     int
	closed   bool
	running  bool            // a drainer is running for this queue
	wg       *sync.WaitGroup // counts every queue's running drainers
}

func newIngestQueue(capacity int, wg *sync.WaitGroup) *ingestQueue {
	return &ingestQueue{capacity: capacity, wg: wg}
}

// push enqueues vs as pushing its values one at a time would: all of
// them are queued, and past capacity the oldest values are shed, the
// resident ones first and then the burst's own oldest. It reports how
// many values were queued and shed, and whether the caller must start a
// drainer, already counted in wg: true when the push finds the queue
// idle. Pushing to a closed queue queues nothing.
func (q *ingestQueue) push(vs []float64) (queued, shed int, start bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, 0, false
	}
	queued = len(vs)
	if over := len(q.vals) - q.head + len(vs) - q.capacity; over > 0 {
		shed = over
		resident := min(over, len(q.vals)-q.head)
		q.head += resident
		vs = vs[over-resident:]
	}
	if len(q.vals)+len(vs) > cap(q.vals) {
		// No room at the tail: move the queued values to the front of a
		// buffer that also holds vs, growing it at most to capacity.
		live, buf := q.vals[q.head:], q.vals[:0]
		if n := len(live) + len(vs); n > cap(buf) {
			buf = make([]float64, 0, min(max(n, 2*cap(buf)), q.capacity))
		}
		q.vals, q.head = append(buf, live...), 0
	}
	q.vals = append(q.vals, vs...)
	if !q.running {
		q.running, start = true, true
		q.wg.Add(1)
	}
	return queued, shed, start
}

// pop returns up to limit queued values, oldest first. When they are
// all the queued values it hands over the queue's buffer, which the next
// push replaces; otherwise it copies them into dst, reusing its
// capacity. A pop that finds the queue empty reports false and retires
// the drainer, so the next push starts another: a drainer that pops
// until false has moved every value pushed before it retired, and on a
// closed queue that is every accepted value — the graceful-shutdown
// guarantee.
func (q *ingestQueue) pop(dst []float64, limit int) ([]float64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := min(len(q.vals)-q.head, limit)
	if n == 0 {
		q.running = false
		return dst, false
	}
	if n == len(q.vals)-q.head {
		dst, q.vals, q.head = q.vals[q.head:], nil, 0
		return dst, true
	}
	dst = append(dst[:0], q.vals[q.head:q.head+n]...)
	q.head += n
	return dst, true
}

// close makes every later push queue nothing; a running drainer still
// empties the queue. Idempotent.
func (q *ingestQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}
