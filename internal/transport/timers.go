package transport

import (
	"sync"
	"time"
)

// timers tracks the runtime's outstanding time.AfterFunc timers so Close can
// cancel callbacks that have not fired yet instead of waiting out their
// delays. Without it, a runtime that counts a callback in-flight at
// scheduling time (the pattern that makes Close a full drain) would block
// Close until every pre-scheduled stream injection and gossip tick has come
// due — minutes, for a run cancelled seconds in.
//
// The zero value is ready to use. All methods are safe for concurrent use.
type timers struct {
	mu     sync.Mutex
	timers map[*timerEntry]struct{}
}

type timerEntry struct {
	t *time.Timer
}

// AfterFunc schedules fn after d, like time.AfterFunc, and tracks the timer
// until it fires or StopAll cancels it. fn runs on the timer goroutine; it
// is never called after a StopAll that caught the timer pending.
func (s *timers) AfterFunc(d time.Duration, fn func()) {
	s.mu.Lock()
	if s.timers == nil {
		s.timers = make(map[*timerEntry]struct{})
	}
	e := &timerEntry{}
	// The callback's first action takes the same lock, so it cannot observe
	// e.t unassigned or its entry missing even when d is zero.
	e.t = time.AfterFunc(d, func() {
		s.mu.Lock()
		delete(s.timers, e)
		s.mu.Unlock()
		fn()
	})
	s.timers[e] = struct{}{}
	s.mu.Unlock()
}

// StopAll cancels every timer that has not fired yet, invoking onCancel once
// per cancelled timer (the runtime uses it to release the in-flight count a
// cancelled callback will never release itself). Timers already firing
// complete their callback as usual. StopAll may be called repeatedly.
func (s *timers) StopAll(onCancel func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for e := range s.timers {
		if e.t.Stop() {
			delete(s.timers, e)
			onCancel()
		}
		// Stop() == false: the callback is running or already ran; it removes
		// its own entry (possibly blocked on our lock right now) and performs
		// its own cleanup.
	}
}
