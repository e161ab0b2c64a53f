// Fixture for the lockguard analyzer: //kw:guardedby(mu) fields may
// only be touched with the named sibling mutex held.
package lockguardfix

import "sync"

type shard struct {
	mu sync.RWMutex
	//kw:guardedby(mu)
	entries map[string]int
	count   int //kw:guardedby(mu) — trailing-comment form works too
	free    int // unguarded
}

// Get locks before reading: legal.
func (s *shard) Get(k string) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.entries[k]
	return v, ok
}

// Put write-locks: legal.
func (s *shard) Put(k string, v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[k] = v
	s.count++
}

// Racy never touches the mutex: the bug.
func (s *shard) Racy(k string) int {
	return s.entries[k] // want `access to entries, guarded by mu`
}

// RacyWrite increments a guarded counter without the lock.
func (s *shard) RacyWrite() {
	s.count++ // want `access to count, guarded by mu`
}

// Free is unguarded: no report.
func (s *shard) Free() int {
	return s.free
}

// newShard constructs the object it initializes: not yet shared, no
// lock needed.
func newShard() *shard {
	s := &shard{}
	s.entries = map[string]int{}
	return s
}

// locked is called with the lock already held and says so.
//
//kw:holds(mu)
func locked(s *shard, k string) int {
	return s.entries[k]
}

// LockElsewhere takes the lock somewhere in the body; the check is
// flow-insensitive by design, so the early access passes too.
func LockElsewhere(s *shard, keys []string) int {
	n := len(s.entries)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		n += s.entries[k]
	}
	return n
}

// WrongRoot locks one shard and reads another: the roots differ.
func WrongRoot(a, b *shard, k string) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return b.entries[k] // want `access to entries, guarded by mu`
}

// BareMutex locks a local mutex that merely shares the guard's name: a
// guard is a sibling field reached through a root, never a bare variable.
func BareMutex(s *shard, k string) int {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	return s.entries[k] // want `access to entries, guarded by mu`
}

// Suppressed documents a deliberate unguarded read.
func Suppressed(s *shard) int {
	return len(s.entries) //kwlint:ignore lockguard — approximate size for metrics; torn reads acceptable
}

type badGuard struct {
	//kw:guardedby(nosuch) // want `no sibling field named nosuch`
	data []int
	//kw:guardedby(data) // want `not a sync.Mutex or sync.RWMutex`
	more []int
}

//kw:holds(mu) // want `misplaced //kw:holds`
var notAFunc int

//kw:guardedby // want `//kw:guardedby requires an argument`
func badDirective() {}

var _ = badGuard{}
var _ = newShard
var _ = locked

// table is generic: its methods and its instantiations reach the guarded
// field through instantiated field objects, still bound by the guard.
type table[K comparable] struct {
	mu sync.Mutex
	//kw:guardedby(mu)
	m map[K]int
}

func (t *table[K]) Put(k K) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[k]++
}

func (t *table[K]) Racy(k K) int {
	return t.m[k] // want `access to m, guarded by mu`
}

func racyInstance(t *table[string]) int {
	return t.m["x"] // want `access to m, guarded by mu`
}
