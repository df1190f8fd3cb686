package main

import (
	"container/heap"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// worker is one request slot: it owns one keep-alive connection per host
// and runs one task at a time, so the number of workers is the cap on
// requests in flight.
type worker struct {
	id int
	hc *http.Client
	// opBusy and pollBusy split the time this worker spent in workload
	// operations and in the driver's own polling (driver.poll_share).
	opBusy, pollBusy time.Duration
}

func newWorker(id int) *worker {
	return &worker{id: id, hc: &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		},
	}}
}

// task is one unit of driver work with the time it is due. fn receives
// how late the task started; latencies are measured from due, so a stall
// that delays a task's start shows in that task's own latency.
type task struct {
	due  time.Time
	seq  uint64
	poll bool
	fn   func(w *worker, due time.Time)
}

type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].due.Equal(h[j].due) {
		return h[i].seq < h[j].seq
	}
	return h[i].due.Before(h[j].due)
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// scheduler dispatches tasks in due-time order to a fixed set of
// workers. Workload operations, commit polling and search polling all go
// through it, so together they never exceed len(workers) requests in
// flight.
type scheduler struct {
	mu      sync.Mutex
	heap    taskHeap
	seq     uint64
	wake    chan struct{}
	work    chan *task
	stop    chan struct{}
	wg      sync.WaitGroup
	workers []*worker

	// dropAfter is how late a workload task may start before it is
	// dropped instead of sent (an arrival that cannot keep its schedule).
	dropAfter time.Duration
	onDrop    func()
	dropped   atomic.Int64
	late      *samples // start lateness of workload tasks, ms

	// outstanding counts workload tasks queued or running (polls excluded).
	outstanding atomic.Int64
}

func newScheduler(n int) *scheduler {
	s := &scheduler{
		wake:      make(chan struct{}, 1),
		work:      make(chan *task),
		stop:      make(chan struct{}),
		dropAfter: 2 * time.Second,
		late:      &samples{},
	}
	for i := 0; i < n; i++ {
		w := newWorker(i)
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go s.workLoop(w)
	}
	s.wg.Add(1)
	go s.dispatch()
	return s
}

// at queues fn to run at due as a workload operation.
func (s *scheduler) at(due time.Time, fn func(w *worker, due time.Time)) {
	s.outstanding.Add(1)
	s.push(&task{due: due, fn: fn})
}

// pollAt queues fn to run at due as driver polling: it is never dropped
// and its time is accounted to pollBusy.
func (s *scheduler) pollAt(due time.Time, fn func(w *worker, due time.Time)) {
	s.push(&task{due: due, fn: fn, poll: true})
}

func (s *scheduler) push(t *task) {
	s.mu.Lock()
	s.seq++
	t.seq = s.seq
	heap.Push(&s.heap, t)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *scheduler) dispatch() {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		s.mu.Lock()
		var next *task
		if len(s.heap) > 0 {
			next = s.heap[0]
		}
		wait := time.Hour
		if next != nil {
			wait = time.Until(next.due)
			if wait <= 0 {
				heap.Pop(&s.heap)
			}
		}
		s.mu.Unlock()
		if next != nil && wait <= 0 {
			select {
			case s.work <- next:
			case <-s.stop:
				return
			}
			continue
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-s.wake:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-s.stop:
			return
		}
	}
}

func (s *scheduler) workLoop(w *worker) {
	defer s.wg.Done()
	for {
		var t *task
		select {
		case t = <-s.work:
		case <-s.stop:
			return
		}
		start := time.Now()
		if t.poll {
			t.fn(w, t.due)
			w.pollBusy += time.Since(start)
			continue
		}
		lateBy := start.Sub(t.due)
		s.late.add(float64(lateBy) / float64(time.Millisecond))
		if lateBy > s.dropAfter {
			s.dropped.Add(1)
			if s.onDrop != nil {
				s.onDrop()
			}
		} else {
			t.fn(w, t.due)
			w.opBusy += time.Since(start)
		}
		s.outstanding.Add(-1)
	}
}

// idle reports whether no workload task is queued or running.
func (s *scheduler) idle() bool { return s.outstanding.Load() == 0 }

// close stops the dispatcher and the workers and waits for them; queued
// tasks are discarded.
func (s *scheduler) close() {
	close(s.stop)
	s.wg.Wait()
	for _, w := range s.workers {
		w.hc.CloseIdleConnections()
	}
}

// busy sums the workers' time split; call after close.
func (s *scheduler) busy() (op, poll time.Duration) {
	for _, w := range s.workers {
		op += w.opBusy
		poll += w.pollBusy
	}
	return op, poll
}
