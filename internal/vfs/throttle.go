package vfs

import (
	"sync"
	"time"
)

// Throttle wraps an FS with a real-time write-bandwidth cap: WriteFile
// and Append sleep long enough that sustained ingress never exceeds
// BytesPerSec. It models a constrained stable store for wall-clock
// experiments (the netsim layer charges a simulated clock instead and
// never sleeps; the async-drain benchmark needs real elapsed time,
// since overlap of capture and drain is precisely what it measures).
//
// The throttle is a token bucket over a shared budget, so concurrent
// writers split the bandwidth rather than each enjoying the full cap.
type Throttle struct {
	FS
	// BytesPerSec is the sustained write bandwidth. <= 0 disables the
	// throttle.
	BytesPerSec int64

	mu      sync.Mutex
	availAt time.Time // when the budget next frees up
}

// NewThrottle wraps fs with a write-bandwidth cap.
func NewThrottle(fs FS, bytesPerSec int64) *Throttle {
	return &Throttle{FS: fs, BytesPerSec: bytesPerSec}
}

// WriteFile implements FS, delaying by the write's bandwidth cost.
func (t *Throttle) WriteFile(name string, data []byte) error {
	t.charge(int64(len(data)))
	return t.FS.WriteFile(name, data)
}

// Append implements FS, delaying by the append's bandwidth cost.
func (t *Throttle) Append(name string, data []byte) error {
	t.charge(int64(len(data)))
	return t.FS.Append(name, data)
}

// charge books cost bytes against the shared budget and sleeps until
// the booked window has passed.
func (t *Throttle) charge(cost int64) {
	if t.BytesPerSec <= 0 || cost <= 0 {
		return
	}
	d := time.Duration(float64(cost) / float64(t.BytesPerSec) * float64(time.Second))
	t.mu.Lock()
	now := time.Now()
	start := t.availAt
	if start.Before(now) {
		start = now
	}
	t.availAt = start.Add(d)
	until := t.availAt
	t.mu.Unlock()
	time.Sleep(time.Until(until))
}
