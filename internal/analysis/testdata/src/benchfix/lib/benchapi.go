package lib

// Adapter is bench-only; it may call the served path and its neighbours.
func Adapter(m map[string]bool) int { return Served(len(m)) + helper() }

// Pinned is a bench-only type.
type Pinned func() int

func helper() int { return 1 }
