package netsim

// SliceQueue is the service queue a network slice holds in each RA
// (Sec. VI-B). The paper's network state is the queue length l and the
// slice's performance is U = −l^α (Eq. 13), so the queue is a backlog
// count: nothing else about a queued task reaches the agent, the
// coordinator or the history. Service capacity is fluid (a fractional rate
// per interval) with a credit counter carrying the remainder between
// intervals. The zero value is an empty queue.
type SliceQueue struct {
	n     int     // queued tasks
	carry float64 // fractional service credit
}

// Arrive enqueues n tasks; n ≤ 0 enqueues nothing.
func (q *SliceQueue) Arrive(n int) {
	if n > 0 {
		q.n += n
	}
}

// Serve dequeues up to rate tasks (fractional rates accumulate across
// intervals) and returns the number actually served.
func (q *SliceQueue) Serve(rate float64) int {
	if rate < 0 {
		rate = 0
	}
	q.carry += rate
	// Credit past the backlog serves all of it; only in-range credit is
	// converted, since int() of a float past MaxInt64 is undefined.
	n := q.n
	if q.carry < float64(q.n) {
		n = int(q.carry)
	}
	if n <= 0 {
		// Cap stored credit so an idle queue cannot bank unlimited service.
		if q.carry > rate {
			q.carry = rate
		}
		return 0
	}
	q.carry -= float64(n)
	q.n -= n
	return n
}

// Len returns the current queue length l (the paper's network state).
func (q *SliceQueue) Len() int { return q.n }
