package netsim

// SliceQueue is the first-in first-out service queue a network slice holds
// in each RA (Sec. VI-B). Tasks are tracked individually with their arrival
// interval so sojourn times can be audited; service capacity is fluid (a
// fractional rate per interval) with a deficit counter carrying the
// remainder between intervals.
//
// Tasks live in a ring: an RAEnv sizes it to Config.MaxQueue up front (the
// ingress drop bounds the backlog there), so stepping never allocates; the
// zero value grows on demand.
type SliceQueue struct {
	ring  []int   // arrival interval per queued task; the oldest is ring[head]
	head  int     // index of the oldest task
	n     int     // queued tasks
	carry float64 // fractional service credit

	totalArrived int
	totalServed  int
	sumSojourn   float64
}

// reserve grows the ring to hold at least capacity tasks, keeping FIFO
// order.
func (q *SliceQueue) reserve(capacity int) {
	if capacity <= len(q.ring) {
		return
	}
	if c := 2 * len(q.ring); capacity < c {
		capacity = c
	}
	ring := make([]int, capacity)
	k := copy(ring, q.ring[q.head:])
	if k > q.n {
		k = q.n
	}
	copy(ring[k:], q.ring[:q.n-k])
	q.ring, q.head = ring, 0
}

// Arrive enqueues n tasks arriving at interval now.
func (q *SliceQueue) Arrive(n, now int) {
	if n <= 0 {
		return
	}
	q.reserve(q.n + n)
	tail := q.head + q.n
	for i := 0; i < n; i++ {
		if tail >= len(q.ring) {
			tail -= len(q.ring)
		}
		q.ring[tail] = now
		tail++
	}
	q.n += n
	q.totalArrived += n
}

// Serve dequeues up to rate tasks (fractional rates accumulate across
// intervals) and returns the number actually served at interval now.
func (q *SliceQueue) Serve(rate float64, now int) int {
	if rate < 0 {
		rate = 0
	}
	q.carry += rate
	n := int(q.carry)
	if n > q.n {
		n = q.n
	}
	if n <= 0 {
		// Cap stored credit so an idle queue cannot bank unlimited service.
		if q.carry > rate {
			q.carry = rate
		}
		return 0
	}
	q.carry -= float64(n)
	for i := 0; i < n; i++ {
		q.sumSojourn += float64(now - q.ring[q.head])
		if q.head++; q.head == len(q.ring) {
			q.head = 0
		}
	}
	q.n -= n
	q.totalServed += n
	return n
}

// Len returns the current queue length l (the paper's network state).
func (q *SliceQueue) Len() int { return q.n }

// TotalArrived returns the cumulative number of arrived tasks.
func (q *SliceQueue) TotalArrived() int { return q.totalArrived }

// TotalServed returns the cumulative number of served tasks.
func (q *SliceQueue) TotalServed() int { return q.totalServed }

// MeanSojourn returns the average number of intervals served tasks spent in
// the queue, or 0 if nothing has been served.
func (q *SliceQueue) MeanSojourn() float64 {
	if q.totalServed == 0 {
		return 0
	}
	return q.sumSojourn / float64(q.totalServed)
}

// Reset clears the queue and its statistics, keeping the ring.
func (q *SliceQueue) Reset() {
	q.head = 0
	q.n = 0
	q.carry = 0
	q.totalArrived = 0
	q.totalServed = 0
	q.sumSojourn = 0
}
