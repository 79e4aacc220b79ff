package sim

// fifo is a growable ring-buffer queue. Unlike the append/reslice
// idiom (`q = q[1:]`), a ring reuses its backing array forever, so a
// queue that reaches a steady-state high-water mark stops allocating —
// the property the trade simulator's 0 allocs/op request loop depends
// on. The zero value is an empty queue.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

// push appends v at the tail, growing the buffer only when full.
func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)%len(f.buf)] = v
	f.n++
}

// pop removes and returns the head element; ok is false when empty.
func (f *fifo[T]) pop() (v T, ok bool) {
	if f.n == 0 {
		return v, false
	}
	var zero T
	v = f.buf[f.head]
	f.buf[f.head] = zero // drop the reference for GC
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	return v, true
}

func (f *fifo[T]) grow() {
	capNew := 2 * len(f.buf)
	if capNew == 0 {
		capNew = 8
	}
	buf := make([]T, capNew)
	for i := 0; i < f.n; i++ {
		buf[i] = f.buf[(f.head+i)%len(f.buf)]
	}
	f.buf = buf
	f.head = 0
}
