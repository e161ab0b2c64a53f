package lib

// Served is the product path.
func Served(n int) int { return n }

func misuse() int {
	var p Pinned = func() int { return 0 } // want `Pinned is declared in benchapi.go for bench/ only`
	return Adapter(nil) + p()              // want `Adapter is declared in benchapi.go for bench/ only`
}

var _ = misuse
